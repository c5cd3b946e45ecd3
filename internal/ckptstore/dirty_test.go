package ckptstore

import (
	"testing"

	"acr/internal/pup"
)

func dirtyTestData(n int, seed byte) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*7) ^ seed
	}
	return data
}

// mustMatchFresh asserts ck carries exactly the sums and root a
// from-scratch capture of data computes.
func mustMatchFresh(t *testing.T, ck *Checkpoint, data []byte, chunkSize int) {
	t.Helper()
	fresh := Capture(append([]byte(nil), data...), chunkSize, 1)
	if ck.Root != fresh.Root {
		t.Fatalf("root %x != fresh root %x", ck.Root, fresh.Root)
	}
	if len(ck.Sums) != len(fresh.Sums) {
		t.Fatalf("%d sums, fresh has %d", len(ck.Sums), len(fresh.Sums))
	}
	for i := range ck.Sums {
		if ck.Sums[i] != fresh.Sums[i] {
			t.Fatalf("sum[%d] %x != fresh %x", i, ck.Sums[i], fresh.Sums[i])
		}
	}
}

func TestCaptureDirtyIntoTable(t *testing.T) {
	const chunkSize = 64
	const size = chunkSize*7 + 13 // 8 chunks, ragged tail
	cases := []struct {
		name string
		// mutate edits the new payload and returns the dirty ranges the
		// packer would report (they must cover every changed byte).
		mutate     func(data []byte) []pup.Range
		wantReused int
	}{
		{
			name:       "all-clean",
			mutate:     func(data []byte) []pup.Range { return nil },
			wantReused: 8,
		},
		{
			name: "all-dirty",
			mutate: func(data []byte) []pup.Range {
				for i := range data {
					data[i] ^= 0x5a
				}
				return []pup.Range{{Lo: 0, Hi: int(^uint(0) >> 1)}}
			},
			wantReused: 0,
		},
		{
			name: "single-chunk",
			mutate: func(data []byte) []pup.Range {
				data[3*chunkSize+5] ^= 1
				return []pup.Range{{Lo: 3*chunkSize + 5, Hi: 3*chunkSize + 6}}
			},
			wantReused: 7,
		},
		{
			name: "chunk-boundary-straddling",
			mutate: func(data []byte) []pup.Range {
				for i := 2*chunkSize - 4; i < 2*chunkSize+4; i++ {
					data[i] ^= 0xff
				}
				return []pup.Range{{Lo: 2*chunkSize - 4, Hi: 2*chunkSize + 4}}
			},
			wantReused: 6, // chunks 1 and 2 recomputed
		},
		{
			name: "ragged-tail-chunk",
			mutate: func(data []byte) []pup.Range {
				data[len(data)-1] ^= 0x80
				return []pup.Range{{Lo: len(data) - 1, Hi: len(data)}}
			},
			wantReused: 7,
		},
		{
			name: "clean-range-beyond-data",
			mutate: func(data []byte) []pup.Range {
				// A mark past the payload (e.g. a widened scalar range on a
				// later field that shrank) must not disturb real chunks.
				return []pup.Range{{Lo: size + 100, Hi: size + 200}}
			},
			wantReused: 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := dirtyTestData(size, 0)
			prev := Capture(base, chunkSize, 1)
			prevSums := append([]uint64(nil), prev.Sums...)

			next := append([]byte(nil), base...)
			dirty := pup.NormalizeRanges(tc.mutate(next))
			ck, reused := CaptureDirtyInto(nil, next, chunkSize, 1, prev, dirty)
			if reused != tc.wantReused {
				t.Fatalf("reused %d chunks, want %d", reused, tc.wantReused)
			}
			mustMatchFresh(t, ck, next, chunkSize)

			// prev must never be aliased or mutated by the splice.
			for i := range ck.Sums {
				ck.Sums[i] ^= 0xdeadbeef
			}
			for i, s := range prev.Sums {
				if s != prevSums[i] {
					t.Fatalf("prev.Sums[%d] changed: splice aliased the base", i)
				}
			}
		})
	}
}

func TestCaptureDirtyIntoIncompatiblePrevFallsBack(t *testing.T) {
	const chunkSize = 64
	base := dirtyTestData(chunkSize*4, 0)
	prev := Capture(base, chunkSize, 1)

	// Different payload length: full recompute, nothing reused.
	grown := dirtyTestData(chunkSize*5, 1)
	ck, reused := CaptureDirtyInto(nil, grown, chunkSize, 1, prev, nil)
	if reused != 0 {
		t.Fatalf("shape change reused %d chunks, want 0", reused)
	}
	mustMatchFresh(t, ck, grown, chunkSize)

	// Different chunk size: likewise.
	ck, reused = CaptureDirtyInto(nil, append([]byte(nil), base...), chunkSize/2, 1, prev, nil)
	if reused != 0 {
		t.Fatalf("chunk-size change reused %d chunks, want 0", reused)
	}
	mustMatchFresh(t, ck, base, chunkSize/2)

	// Nil prev: plain capture.
	ck, reused = CaptureDirtyInto(nil, append([]byte(nil), base...), chunkSize, 1, nil, nil)
	if reused != 0 {
		t.Fatalf("nil prev reused %d chunks, want 0", reused)
	}
	mustMatchFresh(t, ck, base, chunkSize)
}

func TestCaptureDirtyIntoReusesRecycledSums(t *testing.T) {
	const chunkSize = 64
	base := dirtyTestData(chunkSize*4, 0)
	prev := Capture(base, chunkSize, 1)
	recycled := Capture(dirtyTestData(chunkSize*4, 9), chunkSize, 1)
	sumsBefore := &recycled.Sums[0]

	next := append([]byte(nil), base...)
	next[0] ^= 1
	ck, reused := CaptureDirtyInto(recycled, next, chunkSize, 1, prev, []pup.Range{{Lo: 0, Hi: 1}})
	if ck != recycled {
		t.Fatal("expected the recycled checkpoint struct to be reused")
	}
	if &ck.Sums[0] != sumsBefore {
		t.Fatal("expected the recycled Sums buffer to be reused")
	}
	if reused != 3 {
		t.Fatalf("reused %d chunks, want 3", reused)
	}
	mustMatchFresh(t, ck, next, chunkSize)
}

// narrowProg puts a one-byte scalar (bool) and a word-wide one (float64)
// between two bulk fields.
type narrowProg struct {
	Grid  []float64
	Gain  float64
	On    bool
	Field []float64
}

func (n *narrowProg) Pup(p *pup.PUPer) {
	p.Label("grid")
	p.Float64s(&n.Grid)
	p.Label("gain")
	p.Float64(&n.Gain)
	p.Label("on")
	p.Bool(&n.On)
	p.Label("field")
	p.Float64s(&n.Field)
}

// Scalars of every width are self-checked (DESIGN.md §12): an unmarked
// float64/bool change must land in the spliced pack's dirty set, or
// CaptureDirtyInto carries the previous chunk's sum over the new bytes.
func TestCaptureDirtyIntoUnmarkedNarrowScalars(t *testing.T) {
	const chunkSize = 64
	np := &narrowProg{Grid: make([]float64, 40), Gain: 1.5, On: true, Field: make([]float64, 40)}
	for i := range np.Grid {
		np.Grid[i], np.Field[i] = float64(i)*0.5, float64(i)*0.25
	}
	spans := pup.FieldSpans(np)
	base, err := pup.Pack(np)
	if err != nil {
		t.Fatal(err)
	}
	prev := Capture(base, chunkSize, 1)

	np.Gain, np.On = -8.25, false // no mark
	np.Field[3] = 99              // marked: bulk elements are the trusted part
	res, err := pup.PackDirtyInto(np, make([]byte, 0, len(base)), base,
		[]pup.Range{spans["field"].Slice(3, 4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Spliced {
		t.Fatal("expected a spliced pack")
	}
	if fresh, _ := pup.Pack(np); string(res.Data) != string(fresh) {
		t.Fatal("spliced stream differs from a fresh pack")
	}
	for i := range res.Data {
		if res.Data[i] == base[i] {
			continue
		}
		in := false
		for _, r := range res.Dirty {
			in = in || (r.Lo <= i && i < r.Hi)
		}
		if !in {
			t.Fatalf("byte %d changed but is outside the dirty set %v", i, res.Dirty)
		}
	}
	ck, reused := CaptureDirtyInto(nil, res.Data, chunkSize, 1, prev, res.Dirty)
	if reused == 0 {
		t.Fatal("expected the clean grid chunks to be reused")
	}
	mustMatchFresh(t, ck, res.Data, chunkSize)
}
