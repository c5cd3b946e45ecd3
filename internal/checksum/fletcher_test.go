package checksum

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFletcher64MatchesNaive(t *testing.T) {
	naive := func(data []byte) uint64 {
		var s1, s2 uint64
		for i := 0; i < len(data); i += 4 {
			var w uint64
			for j := 0; j < 4; j++ {
				if i+j < len(data) {
					w |= uint64(data[i+j]) << (8 * j)
				}
			}
			s1 = (s1 + w) % 4294967295
			s2 = (s2 + s1) % 4294967295
		}
		return s2<<32 | s1
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 1023, 4096} {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := Fletcher64(data), naive(data); got != want {
			t.Errorf("Fletcher64(len %d) = %#x, want %#x", n, got, want)
		}
	}
}

// Position dependence: swapping two unequal words changes the checksum.
// This is the property that makes Fletcher suitable for SDC detection on
// structured data (§4.2) where an additive checksum would miss transposes.
func TestPositionDependence(t *testing.T) {
	a := []byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}
	b := []byte{2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0}
	if Fletcher64(a) == Fletcher64(b) {
		t.Error("Fletcher64 failed to distinguish transposed words")
	}
}

// Every single-bit flip must change the checksum: this is exactly the SDC
// model of §6.1 (the injector flips one randomly selected bit).
func TestSingleBitFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 256)
	rng.Read(data)
	orig64 := Fletcher64(data)
	for byteIdx := 0; byteIdx < len(data); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			data[byteIdx] ^= 1 << bit
			if Fletcher64(data) == orig64 {
				t.Fatalf("Fletcher64 missed bit flip at byte %d bit %d", byteIdx, bit)
			}
			data[byteIdx] ^= 1 << bit
		}
	}
}

// Incremental writes over arbitrary split points must equal the one-shot
// checksum.
func TestIncrementalEqualsOneShot(t *testing.T) {
	f := func(data []byte, splitRaw uint8) bool {
		if len(data) == 0 {
			return true
		}
		split := int(splitRaw) % (len(data) + 1)
		var w64 Fletcher64Writer
		w64.Write(data[:split])
		w64.Write(data[split:])
		return w64.Sum64() == Fletcher64(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Byte-at-a-time writes equal one-shot.
func TestByteAtATime(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	var w64 Fletcher64Writer
	for _, b := range data {
		w64.Write([]byte{b})
	}
	if w64.Sum64() != Fletcher64(data) {
		t.Error("Fletcher64 byte-at-a-time mismatch")
	}
}

// Sum must not disturb subsequent writes (it snapshots pending bytes).
func TestSumIsNonDestructive(t *testing.T) {
	var w Fletcher64Writer
	w.Write([]byte{1, 2, 3}) // partial word pending
	s1 := w.Sum64()
	s2 := w.Sum64()
	if s1 != s2 {
		t.Error("repeated Sum64 differs")
	}
	w.Write([]byte{4})
	if w.Sum64() != Fletcher64([]byte{1, 2, 3, 4}) {
		t.Error("write after Sum64 corrupted state")
	}
}

func TestWriteReturnsLength(t *testing.T) {
	var w Fletcher64Writer
	n, err := w.Write(make([]byte, 37))
	if n != 37 || err != nil {
		t.Fatalf("Write = (%d, %v), want (37, nil)", n, err)
	}
}

func BenchmarkFletcher64(b *testing.B) {
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fletcher64(data)
	}
}
