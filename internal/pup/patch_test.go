package pup

import (
	"bytes"
	"testing"
)

// packPatchEpochs drives the three-epoch patch protocol the runtime uses:
// epoch 0 is a full pack (the retained base buffer), epoch 1 a copy-splice
// against it (PackDirtyInto), and epoch 2 a patch-in-place capture that
// re-encodes the union of both epochs' dirty sets directly into the base
// buffer. It returns the patch result, the epoch-1 stream it was spliced
// against, and a from-scratch pack of the final state for comparison.
func packPatchEpochs(t *testing.T, tp *trackedProg, mut1, mut2 func(tp *trackedProg, spans map[string]Range)) (res DirtyPackResult, prev, fresh []byte) {
	t.Helper()
	base, err := Pack(tp)
	if err != nil {
		t.Fatal(err)
	}
	tp.ResetDirty()
	spans := FieldSpans(tp)

	mut1(tp, spans)
	d1, ok := tp.DirtyRanges(nil)
	if !ok {
		t.Fatal("tracker blind after ResetDirty")
	}
	r1, err := PackDirtyInto(tp, make([]byte, 0, len(base)), base, d1)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Spliced {
		t.Fatal("epoch-1 capture must splice for the patch protocol to arm")
	}
	tp.ResetDirty()

	mut2(tp, spans)
	d2, ok := tp.DirtyRanges(nil)
	if !ok {
		t.Fatal("tracker blind after second ResetDirty")
	}
	union := append(append([]Range(nil), d2...), r1.Dirty...)
	res, err = PackDirtyPatch(tp, base[:0], r1.Data, d2, union)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = Pack(tp)
	if err != nil {
		t.Fatal(err)
	}
	return res, r1.Data, fresh
}

func TestPackDirtyPatchTable(t *testing.T) {
	type testCase struct {
		name        string
		mut1, mut2  func(tp *trackedProg, spans map[string]Range)
		wantSpliced bool
	}
	mark := func(tp *trackedProg, spans map[string]Range, el int, v float64) {
		tp.Vals[el] = v
		tp.MarkSpan(spans["vals"].Slice(el, el+1, 8))
	}
	cases := []testCase{
		{
			// Nothing written in epoch 2: the patch only re-encodes epoch
			// 1's stale bytes, restoring nothing is dirty vs prev.
			name:        "second-epoch-clean",
			mut1:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 3, -1) },
			mut2:        func(tp *trackedProg, spans map[string]Range) {},
			wantSpliced: true,
		},
		{
			// Disjoint writes: the base buffer is stale at element 3 (epoch
			// 1's write) and element 9 (epoch 2's); both must re-encode.
			name:        "disjoint-elements",
			mut1:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 3, -1) },
			mut2:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 9, -2) },
			wantSpliced: true,
		},
		{
			// The same element written in both epochs: the union collapses.
			name:        "overlapping-elements",
			mut1:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 5, 10) },
			mut2:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 5, 20) },
			wantSpliced: true,
		},
		{
			// An unmarked scalar change in epoch 2 must be self-detected and
			// land in the result's dirty set even though the scalar's offset
			// is nowhere in the marks.
			name:        "unmarked-scalar",
			mut1:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 1, 7) },
			mut2:        func(tp *trackedProg, spans map[string]Range) { tp.Scale = 9.75 },
			wantSpliced: true,
		},
		{
			// Writes to both bulk fields across the two epochs.
			name: "both-bulk-fields",
			mut1: func(tp *trackedProg, spans map[string]Range) {
				tp.Blob[4] ^= 0xaa
				tp.MarkSpan(spans["blob"].Slice(4, 5, 1))
			},
			mut2:        func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 0, 123) },
			wantSpliced: true,
		},
		{
			// A shape change in epoch 2 shifts every later offset: the patch
			// must fall back, and the fallback stream must still be correct.
			name: "shape-change-falls-back",
			mut1: func(tp *trackedProg, spans map[string]Range) { mark(tp, spans, 2, 5) },
			mut2: func(tp *trackedProg, spans map[string]Range) {
				tp.Vals = append(tp.Vals, 777)
				tp.MarkAll()
			},
			wantSpliced: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := newTrackedProg(16, 32)
			res, prev, fresh := packPatchEpochs(t, tp, tc.mut1, tc.mut2)
			if !bytes.Equal(res.Data, fresh) {
				t.Fatalf("patched stream differs from a fresh pack\n got %x\nwant %x", res.Data, fresh)
			}
			if res.Spliced != tc.wantSpliced {
				t.Fatalf("Spliced = %v, want %v", res.Spliced, tc.wantSpliced)
			}
			if res.Spliced {
				checkSpliceInvariant(t, res, prev)
			}
		})
	}
}

// TestPackDirtyPatchSkipsCleanBytes pins the point of the patch path: a
// clean bulk byte is neither copied nor re-encoded, which shows up as the
// base buffer's untouched garbage surviving anywhere we deliberately
// corrupt it OUTSIDE the re-encode set's chunks... rather than poke at
// internals, assert the reuse accounting: with one dirty element per
// epoch, nearly the whole bulk body must be reported reused.
func TestPackDirtyPatchSkipsCleanBytes(t *testing.T) {
	tp := newTrackedProg(256, 0)
	res, _, _ := packPatchEpochs(t, tp,
		func(tp *trackedProg, spans map[string]Range) {
			tp.Vals[7] = -7
			tp.MarkSpan(spans["vals"].Slice(7, 8, 8))
		},
		func(tp *trackedProg, spans map[string]Range) {
			tp.Vals[100] = -100
			tp.MarkSpan(spans["vals"].Slice(100, 101, 8))
		})
	if !res.Spliced {
		t.Fatal("expected spliced patch")
	}
	// 256 elements, 2 re-encoded (epoch-1's stale one and epoch-2's dirty
	// one): at least 253 elements' worth of bytes must be reused.
	if want := 253 * 8; res.Reused < want {
		t.Fatalf("Reused = %d, want >= %d", res.Reused, want)
	}
	// Only epoch-2's write (and possibly scalar noise) may be dirty vs
	// prev; epoch-1's element re-encodes to exactly its prev bytes.
	for _, r := range res.Dirty {
		if r.Hi-r.Lo > 64 {
			t.Fatalf("dirty range %v suspiciously wide for a single-element write", r)
		}
	}
}

// TestPackDirtyPatchStaleScalar exercises the noteScalar difference in
// patch mode: a scalar whose offset lies inside the re-encode set (because
// epoch 1 changed it) but which ALSO changed in epoch 2 must still be
// reported dirty vs prev — coverage by the re-encode set proves nothing.
func TestPackDirtyPatchStaleScalar(t *testing.T) {
	tp := newTrackedProg(8, 0)
	res, prev, fresh := packPatchEpochs(t, tp,
		func(tp *trackedProg, spans map[string]Range) {
			tp.Scale = 2.5
			tp.MarkSpan(spans["scale"])
		},
		func(tp *trackedProg, spans map[string]Range) {
			tp.Scale = 3.5 // unmarked: must be self-detected
		})
	if !bytes.Equal(res.Data, fresh) {
		t.Fatal("patched stream differs from a fresh pack")
	}
	if !res.Spliced {
		t.Fatal("expected spliced patch")
	}
	checkSpliceInvariant(t, res, prev)
}
