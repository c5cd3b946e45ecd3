package ckptstore_test

// Round-trip coverage for large (≥ 1 MiB) real application states through
// the chunked capture path: pack a Jacobi3D block and a LeanMD cell, push
// them through every store backend, restore, and unpack — then corrupt one
// float and assert the two-phase compare localizes the right chunk.

import (
	"bytes"
	"math"
	"testing"

	"acr/internal/apps"
	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/pup"
)

func bigJacobi(t testing.TB) *apps.Jacobi {
	t.Helper()
	// 64^3 cells of float64 = 2 MiB of interior state.
	j := &apps.Jacobi{Iter: 41, Iters: 100, BX: 64, BY: 64, BZ: 64}
	j.U = make([]float64, j.BX*j.BY*j.BZ)
	for i := range j.U {
		j.U[i] = math.Sin(float64(i)*0.013) + 2
	}
	return j
}

func bigLeanMD(t testing.TB) *apps.LeanMD {
	t.Helper()
	// 40k atoms x 4 float64 = 1.25 MiB scattered across per-atom objects.
	m := &apps.LeanMD{Iter: 7, Iters: 50, K: 40000}
	m.Atoms = make([]apps.Atom, m.K)
	for i := range m.Atoms {
		f := float64(i)
		m.Atoms[i] = apps.Atom{X: f * 0.001, Y: f * 0.002, VX: math.Cos(f), VY: math.Sin(f)}
	}
	return m
}

func storesUnderTest(t *testing.T) map[string]ckptstore.Store {
	t.Helper()
	disk, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]ckptstore.Store{"mem": ckptstore.NewMem(), "disk": disk}
}

func TestLargeStateRoundTripThroughChunkedCapture(t *testing.T) {
	progs := map[string]struct {
		state pup.Pupable
		fresh func() pup.Pupable
	}{
		"jacobi2MiB":    {state: bigJacobi(t), fresh: func() pup.Pupable { return &apps.Jacobi{} }},
		"leanmd1.25MiB": {state: bigLeanMD(t), fresh: func() pup.Pupable { return &apps.LeanMD{} }},
	}
	for name, tc := range progs {
		t.Run(name, func(t *testing.T) {
			data, err := pup.Pack(tc.state)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) < 1<<20 {
				t.Fatalf("state packs to %d bytes; test requires >= 1 MiB", len(data))
			}
			for backend, st := range storesUnderTest(t) {
				k := ckptstore.Key{Replica: 0, Node: 1, Task: 2, Epoch: 5}
				ck := ckptstore.Capture(append([]byte(nil), data...), 0, 0)
				if want := checksum.NumChunks(len(data), checksum.DefaultChunkSize); ck.NumChunks() != want {
					t.Fatalf("%s: %d chunks, want %d", backend, ck.NumChunks(), want)
				}
				if err := st.Put(k, ck); err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				got, err := st.Get(k)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				restored := tc.fresh()
				if err := pup.Unpack(got.Bytes(), restored); err != nil {
					t.Fatalf("%s: unpack restored state: %v", backend, err)
				}
				again, err := pup.Pack(restored)
				if err != nil {
					t.Fatalf("%s: re-pack restored state: %v", backend, err)
				}
				if !bytes.Equal(again, data) {
					t.Fatalf("%s: restored state re-packs to different bytes", backend)
				}
			}
		})
	}
}

// Corrupt one float of a 2 MiB Jacobi block and assert the compare
// localizes exactly the chunk holding that float.
func TestLargeStateCorruptionLocalizedToChunk(t *testing.T) {
	j := bigJacobi(t)
	clean, err := pup.Pack(j)
	if err != nil {
		t.Fatal(err)
	}
	const cellIdx = 200000
	j.U[cellIdx] += 1e-9 // a silent single-cell corruption
	dirty, err := pup.Pack(j)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the corrupted byte range in the packed stream to derive the
	// expected chunk index independently of the compare.
	firstDiff := -1
	for i := range clean {
		if clean[i] != dirty[i] {
			firstDiff = i
			break
		}
	}
	if firstDiff < 0 {
		t.Fatal("corruption did not change the packed stream")
	}
	wantChunk := firstDiff / checksum.DefaultChunkSize

	for backend, st := range storesUnderTest(t) {
		a := ckptstore.Key{Replica: 0, Epoch: 1}
		b := ckptstore.Key{Replica: 1, Epoch: 1}
		if err := st.Put(a, ckptstore.Capture(clean, 0, 0)); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if err := st.Put(b, ckptstore.Capture(dirty, 0, 0)); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		res, err := st.Compare(a, b)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if res.Match {
			t.Fatalf("%s: corrupted buddy matched", backend)
		}
		if res.Chunk != wantChunk {
			t.Fatalf("%s: localized chunk %d, want %d", backend, res.Chunk, wantChunk)
		}
		// The pup-level mismatch (FullCompare diagnostics) attributes to
		// the same chunk.
		resCheck, err := pup.Check(j, clean, 0)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if resCheck.Match || len(resCheck.Mismatches) == 0 {
			t.Fatalf("%s: checker missed the corruption", backend)
		}
		// Offset points just past the mismatched field, so its last byte
		// names the chunk.
		if got := (resCheck.Mismatches[0].Offset - 1) / checksum.DefaultChunkSize; got != wantChunk {
			t.Fatalf("%s: pup mismatch attributed to chunk %d, want %d", backend, got, wantChunk)
		}
	}
}
