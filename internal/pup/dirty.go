// Dirty-region tracking for incremental checkpoint capture.
//
// The paper's blocked checkpoint window scales with checkpoint *size*;
// AutoCheck-style dependency analysis shows the cost should instead track
// the *changed* state. The Go analogue implemented here is write tracking
// at packed-stream granularity: applications mark the byte ranges of the
// pup stream they touched since the previous capture, and PackDirtyInto
// re-encodes only elements overlapping those ranges, splicing everything
// else from the previous epoch's packed bytes with memcpy.
//
// Correctness never depends on tracking. A program that does not implement
// DirtyTracker — or whose tracker reports "not tracking" — is packed with
// the ordinary full traversal (the conservative all-dirty fallback), and
// any structural change (a length prefix that differs from the previous
// stream, a stream that grew or shrank) disables splicing for the rest of
// the traversal. Scalars of every width are always re-encoded from live
// state and their bytes compared against the previous stream, so an unmarked
// scalar change is self-detected and folded into the dirty set. The only
// trust placed in the application is that *unmarked bulk elements* (entries
// of Float64s / Int64s / Ints / Float32s / Bytes collections) are unchanged;
// a tracker that lies about those produces a stale capture — the failure
// mode the chaos oracle's blinded-tracking sensitivity check exercises.
package pup

import (
	"bytes"
	"cmp"
	"slices"
	"sort"
)

// Range is a half-open [Lo, Hi) byte interval of the packed stream.
type Range struct {
	Lo, Hi int
}

// rangeMax is the Hi used by MarkAll: past any real stream offset.
const rangeMax = int(^uint(0) >> 1)

// Slice returns the sub-range of a bulk field's span covering elements
// [lo, hi) of elemSize-byte elements. It assumes the span starts with the
// field's 4-byte length prefix, which holds for a field labelled
// immediately before a Float64s/Int64s/Ints/Float32s/Bytes call
// (FieldSpans).
func (r Range) Slice(lo, hi, elemSize int) Range {
	base := r.Lo + 4
	return Range{Lo: base + lo*elemSize, Hi: base + hi*elemSize}
}

// NormalizeRanges sorts ranges by Lo and merges overlapping or adjacent
// ones in place, returning the compacted slice. Empty ranges are dropped.
func NormalizeRanges(rs []Range) []Range {
	if len(rs) == 0 {
		return rs
	}
	slices.SortFunc(rs, func(a, b Range) int { return cmp.Compare(a.Lo, b.Lo) })
	out := rs[:0]
	for _, r := range rs {
		if r.Hi <= r.Lo {
			continue
		}
		if n := len(out); n > 0 && r.Lo <= out[n-1].Hi {
			if r.Hi > out[n-1].Hi {
				out[n-1].Hi = r.Hi
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// DirtyTracker is the write-tracking capability a Program may implement.
// The runtime queries it at capture time (while the task is quiescent) and
// resets it after every successful capture; the application marks ranges
// from its own goroutine between captures, so no synchronization beyond
// the task's quiescence contract is needed.
type DirtyTracker interface {
	// DirtyRanges appends the ranges written since the last ResetDirty to
	// dst[:0] and returns them. ok is false while the tracker is blind
	// (before its first ResetDirty, i.e. in a fresh incarnation), which
	// callers must treat as all-dirty.
	DirtyRanges(dst []Range) (rs []Range, ok bool)
	// ResetDirty clears the write set and arms tracking.
	ResetDirty()
}

// WriteSet is an embeddable DirtyTracker. The zero value is blind
// (DirtyRanges reports ok=false), so a freshly constructed or
// checkpoint-restored program is conservatively captured in full until the
// first capture arms it. WriteSet must NOT be pupped: it is bookkeeping
// about the stream, not part of the stream.
//
// The set is an append log that compacts itself: when it reaches limit
// entries it is normalized in place and limit becomes twice what survived.
// The survivors stay a sorted, disjoint prefix of the log, and a mark that
// one of them already covers is dropped after a binary search — so a task
// that marks the same few fields every iteration holds a handful of ranges
// however long the checkpoint interval is, a mark costs amortized O(log n),
// and the log never exceeds twice the distinct ranges (or writeSetStart).
// Neither step can change what capture sees: NormalizeRanges of this log
// equals NormalizeRanges of the unbounded one, because the union of
// intervals does not depend on the order or grouping in which they are
// merged, and a covered interval adds nothing to it.
type WriteSet struct {
	tracking bool
	ranges   []Range
	sorted   int // ranges[:sorted] is normalized: what the last compaction left
	limit    int // compaction threshold; below writeSetStart (zero value, after reset) means writeSetStart
}

// writeSetStart is the log length at which a WriteSet first compacts.
const writeSetStart = 32

// ResetDirty implements DirtyTracker.
func (w *WriteSet) ResetDirty() {
	w.tracking = true
	w.ranges = w.ranges[:0]
	w.sorted, w.limit = 0, 0
}

// MarkRange records a write to stream bytes [lo, hi). It is a no-op while
// blind. Adjacent or overlapping appends merge with the previous mark, so
// sweeping writes stay O(1) in memory; everything else is bounded by the
// compaction rule in the type comment.
func (w *WriteSet) MarkRange(lo, hi int) {
	if !w.tracking || hi <= lo {
		return
	}
	if w.covered(lo, hi) {
		return
	}
	if n := len(w.ranges); n > 0 && lo <= w.ranges[n-1].Hi && w.ranges[n-1].Lo <= hi {
		if hi > w.ranges[n-1].Hi {
			w.ranges[n-1].Hi = hi
		}
		if lo < w.ranges[n-1].Lo {
			w.ranges[n-1].Lo = lo
		}
		// A grown range may now touch its neighbours: it leaves the
		// normalized prefix if it was its last member.
		w.sorted = min(w.sorted, n-1)
		return
	}
	if len(w.ranges) >= max(w.limit, writeSetStart) {
		w.ranges = NormalizeRanges(w.ranges)
		w.sorted = len(w.ranges)
		w.limit = 2 * len(w.ranges)
	}
	w.ranges = append(w.ranges, Range{Lo: lo, Hi: hi})
}

// covered reports whether one range of the normalized prefix contains
// [lo, hi): the mark of a field already marked since the last compaction.
func (w *WriteSet) covered(lo, hi int) bool {
	// The last prefix range starting at or before lo is the only candidate.
	i := sort.Search(w.sorted, func(i int) bool { return w.ranges[i].Lo > lo })
	return i > 0 && hi <= w.ranges[i-1].Hi
}

// MarkSpan marks a whole field span (prefix included).
func (w *WriteSet) MarkSpan(r Range) { w.MarkRange(r.Lo, r.Hi) }

// MarkAll marks the entire stream dirty — the honest choice for an
// iteration that rewrote everything.
func (w *WriteSet) MarkAll() {
	if !w.tracking {
		return
	}
	w.ranges = append(w.ranges[:0], Range{Lo: 0, Hi: rangeMax})
	w.sorted = 1 // one range is normalized, and covers every later mark
}

// DirtyRanges implements DirtyTracker.
func (w *WriteSet) DirtyRanges(dst []Range) ([]Range, bool) {
	if !w.tracking {
		return dst[:0], false
	}
	return append(dst[:0], w.ranges...), true
}

// FieldSpans measures the stream span of every labelled field of obj with
// a Sizing traversal: spans[label] covers the bytes from that Label call
// to the next one (or the end of the stream). Applications use the spans
// to translate "I wrote field u" into stream ranges for a WriteSet. Spans
// depend on the current collection lengths; recompute after a shape
// change. Repeated labels keep the last occurrence.
func FieldSpans(obj Pupable) map[string]Range {
	p := &PUPer{mode: Sizing, spans: make(map[string]Range)}
	obj.Pup(p)
	p.flushSpan()
	return p.spans
}

// DirtyPackResult reports how PackDirtyInto produced its stream.
type DirtyPackResult struct {
	// Data is the packed stream (aliases the caller's buffer when Fast).
	Data []byte
	// Dirty is the effective normalized dirty set — the marked ranges plus
	// any scalar changes detected during packing. Valid only when Spliced;
	// nil otherwise (treat as all-dirty).
	Dirty []Range
	// Reused counts bytes spliced from prev instead of re-encoded.
	Reused int
	// Spliced reports that Data is offset-aligned with prev end to end:
	// every byte outside Dirty is byte-identical to prev, so per-chunk
	// checksums of clean chunks may be reused.
	Spliced bool
	// Fast reports the single-pass pack into the caller's buffer (as in
	// PackInto); false means the two-pass fallback allocated Data.
	Fast bool
}

// PackDirtyInto packs obj like PackInto, but when prev (the previous
// capture's packed stream for the same task) is supplied, bulk collection
// bodies are copied from prev with memcpy and only elements overlapping
// dirty are re-encoded from live state. dirty is normalized in place.
//
// The all-dirty fallback is automatic: a nil prev, a zero-capacity buf, a
// structural divergence from prev, or a buffer overflow all degrade to the
// ordinary full pack; the result is then correct but unspliced.
func PackDirtyInto(obj Pupable, buf, prev []byte, dirty []Range) (DirtyPackResult, error) {
	dirty = NormalizeRanges(dirty)
	if prev == nil || cap(buf) == 0 {
		data, fast, err := PackInto(obj, buf)
		return DirtyPackResult{Data: data, Fast: fast}, err
	}
	b := buf[:cap(buf)]
	p := packerPool.Get().(*PUPer)
	*p = PUPer{mode: Packing, buf: b, prev: prev, dirty: dirty}
	obj.Pup(p)
	off, overflow, perr := p.off, p.overflow, p.err
	diverged, reused, extra := p.diverged, p.reused, p.extra
	p.extra = nil // detach before reset; extra may be returned to the caller
	*p = PUPer{}
	packerPool.Put(p)
	switch {
	case perr == nil:
		res := DirtyPackResult{Data: b[:off], Fast: true}
		if !diverged && off == len(prev) {
			if len(extra) > 0 {
				dirty = NormalizeRanges(append(dirty, extra...))
			}
			res.Dirty, res.Reused, res.Spliced = dirty, reused, true
		}
		return res, nil
	case !overflow:
		return DirtyPackResult{}, perr
	}
	data, err := Pack(obj)
	return DirtyPackResult{Data: data}, err
}

// PackDirtyPatch packs obj by patching a retained older stream in place:
// buf's backing array must already hold a "base" stream (typically the
// capture from two epochs ago) that differs from prev — the previous
// capture's stream — only on bytes covered by reencode. Elements
// overlapping reencode are re-encoded from live state directly into buf;
// everything else is left untouched, so clean bytes cost nothing at all,
// not even the memcpy PackDirtyInto pays. reencode must therefore be a
// superset of dirty (the ranges written since prev) unioned with the
// ranges by which base differs from prev.
//
// Scalars and length prefixes are always re-encoded and compared against
// prev exactly as in PackDirtyInto, so the result's Dirty set — dirty plus
// every detected change — is relative to prev and valid for per-chunk
// checksum splicing against the previous capture. All the same fallbacks
// apply (divergence, overflow, short buffers); an unspliced result is
// still a correct stream, because bytes the traversal skipped are, by the
// caller's precondition, identical in base, prev, and live state.
func PackDirtyPatch(obj Pupable, buf, prev []byte, dirty, reencode []Range) (DirtyPackResult, error) {
	if prev == nil || cap(buf) == 0 {
		data, fast, err := PackInto(obj, buf)
		return DirtyPackResult{Data: data, Fast: fast}, err
	}
	dirty = NormalizeRanges(dirty)
	reencode = NormalizeRanges(reencode)
	b := buf[:cap(buf)]
	p := packerPool.Get().(*PUPer)
	*p = PUPer{mode: Packing, buf: b, prev: prev, dirty: reencode, patch: true}
	obj.Pup(p)
	off, overflow, perr := p.off, p.overflow, p.err
	diverged, reused, extra := p.diverged, p.reused, p.extra
	p.extra = nil // detach before reset; extra may be returned to the caller
	*p = PUPer{}
	packerPool.Put(p)
	switch {
	case perr == nil:
		res := DirtyPackResult{Data: b[:off], Fast: true}
		if !diverged && off == len(prev) {
			if len(extra) > 0 {
				dirty = NormalizeRanges(append(dirty, extra...))
			}
			res.Dirty, res.Reused, res.Spliced = dirty, reused, true
		}
		return res, nil
	case !overflow:
		return DirtyPackResult{}, perr
	}
	data, err := Pack(obj)
	return DirtyPackResult{Data: data}, err
}

// splicing reports whether the current Packing traversal is still aligned
// with a previous stream.
func (p *PUPer) splicing() bool {
	return p.mode == Packing && p.prev != nil && !p.diverged
}

// spliceBulk packs the body of a bulk collection at the current offset —
// view, its wire image (view.go), in elemSize-byte elements — by re-encoding
// the elements that overlap a dirty range, one copy per range, and taking
// every other byte from the previous stream (or, patching, leaving it be):
// no byte is written twice. Returns true when it handled the body (including
// by failing on overflow); false means the caller must encode all of it.
func (p *PUPer) spliceBulk(view []byte, elemSize int) bool {
	if !p.splicing() || p.err != nil {
		return false
	}
	body := len(view)
	lo := p.off
	hi := lo + body
	if hi > len(p.buf) {
		p.overflow = true
		p.fail("pack overflow at %d (+%d, buffer %d)", lo, body, len(p.buf))
		return true
	}
	if hi > len(p.prev) {
		// The previous stream is too short for this body: the structure
		// grew, offsets no longer line up. Encode normally from here on.
		p.diverged = true
		return false
	}
	clean := lo // start of the clean bytes not yet taken from prev
	last := -1  // last re-encoded element index
	for p.dirtyIdx < len(p.dirty) && body > 0 {
		r := p.dirty[p.dirtyIdx]
		if r.Hi <= lo {
			p.dirtyIdx++
			continue
		}
		if r.Lo >= hi {
			break
		}
		rlo, rhi := max(r.Lo, lo), min(r.Hi, hi)
		first := max((rlo-lo)/elemSize, last+1)
		last = max((rhi-1-lo)/elemSize, last)
		if encStart, encEnd := lo+first*elemSize, lo+(last+1)*elemSize; encStart < encEnd {
			if !p.patch {
				copy(p.buf[clean:encStart], p.prev[clean:encStart])
			}
			copy(p.buf[encStart:encEnd], view[encStart-lo:])
			clean = encEnd
			p.reused -= encEnd - encStart
			// Re-encoding is whole-element: where the mark cut into an
			// element, the bytes outside the mark were rewritten too, so
			// widen the effective dirty set to the element boundaries.
			if encStart < rlo {
				p.appendExtra(encStart, rlo)
			}
			if encEnd > rhi {
				p.appendExtra(rhi, encEnd)
			}
		}
		if r.Hi > hi {
			break // the range continues into later fields
		}
		p.dirtyIdx++
	}
	if !p.patch {
		copy(p.buf[clean:hi], p.prev[clean:hi])
	}
	p.off = hi
	p.reused += body
	return true
}

// noteScalar runs after a scalar's n bytes were packed at p.off-n: while
// splicing, it compares them against the previous stream and records an
// unmarked change in the extra dirty set, keeping chunk checksums
// consistent with the data even when the application never marks its
// scalars. Adjacent changed scalars merge into one range.
func (p *PUPer) noteScalar(n int) {
	if !p.splicing() {
		return
	}
	hi := p.off
	lo := hi - n
	if hi > len(p.prev) {
		p.diverged = true
		return
	}
	if bytes.Equal(p.buf[lo:hi], p.prev[lo:hi]) {
		return
	}
	// Already covered by a marked range? The cursor only ever moves
	// forward: offsets are monotonic, so ranges ending at or before lo are
	// behind us for every later field too. In patch mode p.dirty is the
	// re-encode set (it includes the previous epoch's dirt), so coverage by
	// it does not imply the caller's dirty set covers this scalar — record
	// the change unconditionally and let normalization dedupe.
	if !p.patch {
		for p.dirtyIdx < len(p.dirty) && p.dirty[p.dirtyIdx].Hi <= lo {
			p.dirtyIdx++
		}
		if p.dirtyIdx < len(p.dirty) && p.dirty[p.dirtyIdx].Lo <= lo && hi <= p.dirty[p.dirtyIdx].Hi {
			return
		}
	}
	p.appendExtra(lo, hi)
}

// appendExtra records [lo, hi) in the detected-dirty set, merging with the
// previous entry when adjacent or overlapping (appends arrive in stream
// order because offsets are monotonic).
func (p *PUPer) appendExtra(lo, hi int) {
	if k := len(p.extra); k > 0 && p.extra[k-1].Hi >= lo {
		if hi > p.extra[k-1].Hi {
			p.extra[k-1].Hi = hi
		}
		return
	}
	p.extra = append(p.extra, Range{Lo: lo, Hi: hi})
}

// notePrefix runs after a 4-byte length prefix was packed: a prefix that
// differs from the previous stream means the collection changed shape and
// every later offset shifts, so splicing is disabled for the rest of the
// traversal.
func (p *PUPer) notePrefix() {
	if !p.splicing() {
		return
	}
	if p.off > len(p.prev) || !bytes.Equal(p.buf[p.off-4:p.off], p.prev[p.off-4:p.off]) {
		p.diverged = true
	}
}
