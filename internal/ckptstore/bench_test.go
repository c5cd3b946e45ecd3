package ckptstore

// Benchmarks backing the tentpole claim: chunked-parallel checksum
// capture beats the serial Fletcher64Writer on multi-MiB checkpoints.

import (
	"testing"

	"acr/internal/checksum"
)

const benchSize = 8 << 20 // 8 MiB checkpoint

func BenchmarkCaptureSerialWriter8MiB(b *testing.B) {
	data := randData(b, 1, benchSize)
	b.SetBytes(benchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f checksum.Fletcher64Writer
		f.Write(data)
		if f.Sum64() == 0 {
			b.Fatal("degenerate checksum")
		}
	}
}

func BenchmarkCaptureChunkedParallel8MiB(b *testing.B) {
	data := randData(b, 1, benchSize)
	b.SetBytes(benchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ck := Capture(data, 0, 0)
		if ck.Root == 0 {
			b.Fatal("degenerate root")
		}
	}
}

// Two-phase compare on the fast path (identical buddies): roots only,
// independent of checkpoint size once captured.
func BenchmarkCompareTwoPhaseMatch(b *testing.B) {
	st := NewMem()
	data := randData(b, 2, benchSize)
	a := Key{Replica: 0, Epoch: 1}
	bb := Key{Replica: 1, Epoch: 1}
	st.Put(a, Capture(append([]byte(nil), data...), 0, 0))
	st.Put(bb, Capture(append([]byte(nil), data...), 0, 0))
	b.SetBytes(benchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Compare(a, bb)
		if err != nil || !res.Match {
			b.Fatalf("compare: %v %v", res, err)
		}
	}
}
