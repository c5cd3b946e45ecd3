// Package pup is a Go rendition of Charm++'s Pack/UnPack (PUP) framework,
// the serialization layer ACR uses for checkpointing (§4.1).
//
// An application type implements Pupable with a single Pup method that
// "pipes" every field through a PUPer. The same method then serves four
// purposes, selected by the PUPer's mode:
//
//   - Sizing:    measure the packed size without copying.
//   - Packing:   serialize the state into a buffer (a local checkpoint).
//   - Unpacking: restore the state from a buffer (restart).
//   - Checking:  compare live state against a buddy's checkpoint to detect
//     silent data corruption — the "checker PUPer" of §4.1, with a
//     configurable relative tolerance for floating-point data.
//
// Encoding is little-endian with fixed-width scalars and uint32 length
// prefixes, so packed size is deterministic for a given structure shape.
package pup

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Mode identifies what a PUPer traversal does.
type Mode int

// Traversal modes.
const (
	Sizing Mode = iota
	Packing
	Unpacking
	Checking
)

func (m Mode) String() string {
	switch m {
	case Sizing:
		return "sizing"
	case Packing:
		return "packing"
	case Unpacking:
		return "unpacking"
	case Checking:
		return "checking"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Pupable is implemented by any type that can be checkpointed. Pup must
// traverse the same fields in the same order in every mode.
type Pupable interface {
	Pup(p *PUPer)
}

// Mismatch records one field-level difference found in Checking mode.
type Mismatch struct {
	Label  string  // the label active when the mismatch was found
	Offset int     // byte offset in the checkpoint stream
	Local  float64 // local value (best-effort numeric rendering)
	Remote float64 // remote value
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s@%d: local %v != remote %v", m.Label, m.Offset, m.Local, m.Remote)
}

// MaxMismatches bounds how many mismatches a checker records; one is enough
// to trigger a rollback, more are kept only for diagnostics.
const MaxMismatches = 16

// PUPer carries a traversal. Create one with NewSizer, NewPacker,
// NewUnpacker, or NewChecker; the zero value is not usable.
type PUPer struct {
	mode Mode
	buf  []byte
	off  int
	err  error
	// overflow distinguishes a Packing buffer that was merely too small
	// (PackInto's fast path falls back to the two-pass path) from a
	// structural error.
	overflow bool

	// Checking state.
	relTol     float64
	mismatches []Mismatch
	label      string

	// Dirty-splice state (PackDirtyInto, dirty.go): prev is the previous
	// capture's packed stream, dirty the normalized marked ranges with
	// dirtyIdx a monotonic cursor into them, diverged the "offsets no
	// longer line up" latch, reused the bytes spliced instead of
	// re-encoded, and extra the unmarked scalar changes detected while
	// packing.
	prev     []byte
	dirty    []Range
	dirtyIdx int
	diverged bool
	reused   int
	extra    []Range
	// patch marks a PackDirtyPatch traversal: buf already holds a stream
	// that matches prev outside p.dirty, so spliceBulk skips the clean-byte
	// copy entirely, and noteScalar reports every changed scalar (p.dirty is
	// the re-encode set, not the caller's marks, so coverage by it proves
	// nothing about prev).
	patch bool

	// Field-span recording (FieldSpans, dirty.go).
	spans     map[string]Range
	spanLabel string
	spanStart int
}

// NewSizer returns a PUPer that measures packed size.
func NewSizer() *PUPer { return &PUPer{mode: Sizing} }

// NewPacker returns a PUPer that packs into buf, which must be at least
// Size(obj) bytes (use Pack for automatic allocation).
func NewPacker(buf []byte) *PUPer { return &PUPer{mode: Packing, buf: buf} }

// NewUnpacker returns a PUPer that restores state from data.
func NewUnpacker(data []byte) *PUPer { return &PUPer{mode: Unpacking, buf: data} }

// NewChecker returns a PUPer that compares live state against the packed
// checkpoint in remote. relTol is the relative tolerance applied to
// floating-point comparisons (§4.1: "a programmer can set the relative
// error a program can tolerate"); zero demands exact equality.
func NewChecker(remote []byte, relTol float64) *PUPer {
	return &PUPer{mode: Checking, buf: remote, relTol: relTol}
}

// Mode returns the traversal mode.
func (p *PUPer) Mode() Mode { return p.mode }

// Offset returns the number of bytes traversed so far.
func (p *PUPer) Offset() int { return p.off }

// Err returns the first structural error encountered (buffer overrun,
// length mismatch). Mismatched *values* in Checking mode are not errors;
// see Mismatches.
func (p *PUPer) Err() error { return p.err }

// Mismatches returns the value differences found in Checking mode.
func (p *PUPer) Mismatches() []Mismatch { return p.mismatches }

// Label sets the diagnostic label attached to subsequently found
// mismatches, typically a field name. When field spans are being recorded
// (FieldSpans) it also closes the previous field's span.
func (p *PUPer) Label(s string) {
	if p.spans != nil {
		p.flushSpan()
		p.spanLabel, p.spanStart = s, p.off
	}
	p.label = s
}

// flushSpan closes the currently open field span.
func (p *PUPer) flushSpan() {
	if p.spanLabel != "" && p.off > p.spanStart {
		p.spans[p.spanLabel] = Range{Lo: p.spanStart, Hi: p.off}
	}
	p.spanLabel = ""
}

func (p *PUPer) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("pup: "+format, args...)
	}
}

func (p *PUPer) addMismatch(local, remote float64) {
	if len(p.mismatches) < MaxMismatches {
		p.mismatches = append(p.mismatches, Mismatch{
			Label:  p.label,
			Offset: p.off,
			Local:  local,
			Remote: remote,
		})
	} else {
		// Keep counting implicitly by noting saturation in the last slot.
		p.mismatches[MaxMismatches-1].Label = "...more"
	}
}

// raw processes n bytes: returns the destination (Packing) or source
// (Unpacking/Checking) window, or nil in Sizing mode or on error.
func (p *PUPer) raw(n int) []byte {
	switch p.mode {
	case Sizing:
		p.off += n
		return nil
	case Packing:
		if p.off+n > len(p.buf) {
			p.overflow = true
			p.fail("pack overflow at %d (+%d, buffer %d)", p.off, n, len(p.buf))
			return nil
		}
	case Unpacking, Checking:
		if p.off+n > len(p.buf) {
			p.fail("%s underrun at %d (+%d, buffer %d)", p.mode, p.off, n, len(p.buf))
			return nil
		}
	}
	w := p.buf[p.off : p.off+n]
	p.off += n
	return w
}

func (p *PUPer) floatEqual(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	if p.relTol <= 0 {
		return false
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= p.relTol*scale
}

// Uint64 pipes a uint64.
func (p *PUPer) Uint64(v *uint64) {
	w := p.raw(8)
	if w == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint64(w, *v)
		p.noteScalar(8)
	case Unpacking:
		*v = binary.LittleEndian.Uint64(w)
	case Checking:
		r := binary.LittleEndian.Uint64(w)
		if r != *v {
			p.addMismatch(float64(*v), float64(r))
		}
	}
}

// Int64 pipes an int64.
func (p *PUPer) Int64(v *int64) {
	u := uint64(*v)
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = int64(u)
	}
}

// Int pipes an int (as 64-bit on the wire).
func (p *PUPer) Int(v *int) {
	u := uint64(int64(*v))
	p.Uint64(&u)
	if p.mode == Unpacking {
		*v = int(int64(u))
	}
}

// Bool pipes a bool as one byte.
func (p *PUPer) Bool(v *bool) {
	w := p.raw(1)
	if w == nil {
		return
	}
	switch p.mode {
	case Packing:
		w[0] = 0
		if *v {
			w[0] = 1
		}
		p.noteScalar(1)
	case Unpacking:
		*v = w[0] != 0
	case Checking:
		local := byte(0)
		if *v {
			local = 1
		}
		if w[0] != local {
			p.addMismatch(float64(local), float64(w[0]))
		}
	}
}

// Float64 pipes a float64 with tolerance-aware comparison in Checking mode.
func (p *PUPer) Float64(v *float64) {
	w := p.raw(8)
	if w == nil {
		return
	}
	switch p.mode {
	case Packing:
		binary.LittleEndian.PutUint64(w, math.Float64bits(*v))
		p.noteScalar(8)
	case Unpacking:
		*v = math.Float64frombits(binary.LittleEndian.Uint64(w))
	case Checking:
		r := math.Float64frombits(binary.LittleEndian.Uint64(w))
		if !p.floatEqual(*v, r) {
			p.addMismatch(*v, r)
		}
	}
}

// length pipes a collection length prefix and returns the agreed length
// (the local length in Sizing/Packing/Checking, the stored length when
// Unpacking). A negative return means a structural error occurred.
func (p *PUPer) length(local int) int {
	n := uint32(local)
	w := p.raw(4)
	if p.err != nil {
		return -1
	}
	switch p.mode {
	case Sizing:
		return local
	case Packing:
		binary.LittleEndian.PutUint32(w, n)
		p.notePrefix()
		return local
	case Unpacking:
		return int(binary.LittleEndian.Uint32(w))
	case Checking:
		stored := int(binary.LittleEndian.Uint32(w))
		if stored != local {
			// A length difference means the structures diverged; the
			// stream can no longer be aligned, so this is structural.
			p.fail("length mismatch at %d: local %d, remote %d (label %q)", p.off, local, stored, p.label)
			return -1
		}
		return local
	}
	return -1
}

// checkBlock is the Checking-mode comparison unit of a bulk body: a multiple
// of every element width, large enough that bytes.Equal runs at memcmp speed
// and small enough that walking one differing block element by element is
// noise.
const checkBlock = 4096

// bulk pipes a numeric slice: the length prefix, then a body whose unit of
// work is a byte range of the slice's wire view (view.go) — one copy to pack
// or unpack, one bytes.Equal per checkBlock to check. elem, the scalar
// method for one element, survives as the per-element walk for exactly three
// cases: no view (big-endian host, 32-bit int), a buffer too short for the
// body (the walk fails on the first element that does not fit, and its error
// is the documented one), and a Checking block whose bytes differ — only
// floatEqual knows whether differing bytes are a mismatch (-0 == 0, NaN ==
// NaN, relTol), and it reports each one at the offset the walk always did.
func bulk[T numeric](p *PUPer, v *[]T, size int, elem func(*PUPer, *T)) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Unpacking && len(*v) != n {
		*v = make([]T, n)
	}
	body := n * size
	if p.mode == Sizing {
		p.off += body
		return
	}
	view := wireView(*v, size)
	if p.mode == Packing && len(view) == body && p.spliceBulk(view, size) {
		return
	}
	if len(view) != body || p.off+body > len(p.buf) {
		for i := range *v {
			if p.err != nil {
				return
			}
			elem(p, &(*v)[i])
		}
		return
	}
	w := p.raw(body)
	switch p.mode {
	case Packing:
		copy(w, view)
	case Unpacking:
		copy(view, w)
	case Checking:
		for lo := 0; lo < body; lo += checkBlock {
			hi := min(lo+checkBlock, body)
			if bytes.Equal(view[lo:hi], w[lo:hi]) {
				continue
			}
			p.off -= body - lo
			for i := lo / size; i < hi/size; i++ {
				elem(p, &(*v)[i])
			}
			p.off += body - hi
		}
	}
}

// Float64s pipes a []float64, resizing on unpack.
func (p *PUPer) Float64s(v *[]float64) { bulk(p, v, 8, (*PUPer).Float64) }

// Bytes pipes a []byte, resizing on unpack.
func (p *PUPer) Bytes(v *[]byte) {
	n := p.length(len(*v))
	if n < 0 {
		return
	}
	if p.mode == Packing && p.spliceBulk(*v, 1) {
		return
	}
	w := p.raw(n)
	if p.mode == Sizing || p.err != nil {
		return
	}
	switch p.mode {
	case Packing:
		copy(w, *v)
	case Unpacking:
		if len(*v) != n {
			*v = make([]byte, n)
		}
		copy(*v, w)
	case Checking:
		for i := 0; i < n; i++ {
			if (*v)[i] != w[i] {
				p.addMismatch(float64((*v)[i]), float64(w[i]))
				break // one mismatch per byte slice is enough detail
			}
		}
	}
}

// String pipes a string.
func (p *PUPer) String(v *string) {
	b := []byte(*v)
	p.Bytes(&b)
	if p.mode == Unpacking {
		*v = string(b)
	}
}

// Object pipes a nested Pupable.
func (p *PUPer) Object(v Pupable) { v.Pup(p) }

// Size returns the packed size of obj in bytes.
func Size(obj Pupable) int {
	p := NewSizer()
	obj.Pup(p)
	return p.Offset()
}

// Pack serializes obj into a fresh buffer.
func Pack(obj Pupable) ([]byte, error) {
	buf := make([]byte, Size(obj))
	p := NewPacker(buf)
	obj.Pup(p)
	if p.Err() != nil {
		return nil, p.Err()
	}
	if p.Offset() != len(buf) {
		return nil, fmt.Errorf("pup: pack wrote %d of %d bytes (inconsistent Pup method)", p.Offset(), len(buf))
	}
	return buf, nil
}

// PackInto serializes obj reusing buf's capacity when it suffices,
// skipping the Sizing traversal entirely — the size-hint fast path: callers
// keep the buffer from the previous checkpoint round (state sizes are
// usually stable between rounds) and pay a single traversal instead of two.
//
// It packs optimistically into buf[:cap(buf)]; if the state grew past the
// hint, it falls back to the two-pass Pack path. The returned slice aliases
// buf on the fast path (fast=true) and is freshly allocated on the fallback
// (fast=false). A zero-capacity buf always takes the fallback.
func PackInto(obj Pupable, buf []byte) (data []byte, fast bool, err error) {
	if cap(buf) > 0 {
		b := buf[:cap(buf)]
		// Recycle the PUPer itself: obj.Pup is an interface call, so a
		// fresh PUPer always escapes to the heap — the one allocation that
		// would otherwise survive on the zero-allocation capture path.
		p := packerPool.Get().(*PUPer)
		*p = PUPer{mode: Packing, buf: b}
		obj.Pup(p)
		off, overflow, perr := p.off, p.overflow, p.err
		*p = PUPer{}
		packerPool.Put(p)
		switch {
		case perr == nil:
			return b[:off], true, nil
		case !overflow:
			// Structural error, not a too-small buffer: growing won't help.
			return nil, false, perr
		}
	}
	data, err = Pack(obj)
	return data, false, err
}

var packerPool = sync.Pool{New: func() any { return new(PUPer) }}

// Unpack restores obj from data produced by Pack.
func Unpack(data []byte, obj Pupable) error {
	p := NewUnpacker(data)
	obj.Pup(p)
	if p.Err() != nil {
		return p.Err()
	}
	if p.Offset() != len(data) {
		return fmt.Errorf("pup: unpack consumed %d of %d bytes", p.Offset(), len(data))
	}
	return nil
}

// CheckResult reports the outcome of comparing live state with a remote
// checkpoint.
type CheckResult struct {
	Match      bool
	Mismatches []Mismatch
}

// Check compares the live state of obj against the packed checkpoint in
// remote with the given relative float tolerance. A structural divergence
// (different lengths, short buffer) is returned as an error; value
// differences are reported in the result.
func Check(obj Pupable, remote []byte, relTol float64) (CheckResult, error) {
	p := NewChecker(remote, relTol)
	obj.Pup(p)
	if p.Err() != nil {
		return CheckResult{}, p.Err()
	}
	if p.Offset() != len(remote) {
		return CheckResult{}, fmt.Errorf("pup: check consumed %d of %d bytes", p.Offset(), len(remote))
	}
	ms := p.Mismatches()
	return CheckResult{Match: len(ms) == 0, Mismatches: ms}, nil
}
