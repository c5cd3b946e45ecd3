package ckptstore

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"

	"acr/internal/model"
)

// backends returns one fresh instance of every Store implementation,
// so the conformance tests below run against all tiers.
func backends(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMem(),
		"disk": disk,
	}
}

func randData(t testing.TB, seed int64, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

const testChunk = 4 << 10

func corruptFileByte(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStorePutGetRoundTrip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			data := randData(t, 1, 100<<10+17)
			ck := Capture(append([]byte(nil), data...), testChunk, 2)
			k := Key{Replica: 1, Node: 2, Task: 3, Epoch: 7}
			if err := st.Put(k, ck); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Bytes()) != string(data) {
				t.Fatal("payload did not round-trip")
			}
			if got.Root != ck.Root || got.NumChunks() != ck.NumChunks() {
				t.Fatalf("metadata did not round-trip: root %#x/%#x chunks %d/%d",
					got.Root, ck.Root, got.NumChunks(), ck.NumChunks())
			}
			if _, err := st.Get(Key{Epoch: 99}); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing key: got %v, want ErrNotFound", err)
			}
			c := st.Counters()
			if c.Puts != 1 || c.Gets != 1 || c.BytesRead != int64(len(data)) {
				t.Fatalf("counters: %+v", c)
			}
		})
	}
}

// An injected single-bit flip must be localized to the correct chunk by
// every backend's two-phase compare — the Merkle-style sharpening of §4.2
// diagnostics.
func TestStoreCompareLocalizesSingleBitFlip(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const size = 256 << 10
			clean := randData(t, 2, size)
			a := Key{Replica: 0, Epoch: 1}
			b := Key{Replica: 1, Epoch: 1}
			if err := st.Put(a, Capture(append([]byte(nil), clean...), testChunk, 2)); err != nil {
				t.Fatal(err)
			}
			// The buddy saw one bit flip deep inside the buffer.
			corrupt := append([]byte(nil), clean...)
			flipAt := 201*1024 + 5
			corrupt[flipAt] ^= 0x10
			if err := st.Put(b, Capture(corrupt, testChunk, 2)); err != nil {
				t.Fatal(err)
			}
			res, err := st.Compare(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if res.Match {
				t.Fatal("single-bit SDC not detected")
			}
			if want := flipAt / testChunk; res.Chunk != want {
				t.Fatalf("SDC localized to chunk %d, want %d", res.Chunk, want)
			}
			c := st.Counters()
			if c.Mismatches != 1 || c.LastLocalizedChunk != int64(flipAt/testChunk) {
				t.Fatalf("counters after mismatch: %+v", c)
			}

			// Identical buddies must match (fast path: roots only).
			b2 := Key{Replica: 1, Epoch: 2}
			if err := st.Put(b2, Capture(append([]byte(nil), clean...), testChunk, 2)); err != nil {
				t.Fatal(err)
			}
			res, err = st.Compare(a, b2)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("clean buddies mismatched: %v", res)
			}
		})
	}
}

func TestStoreCompareStructuralDivergence(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			a := Key{Replica: 0, Epoch: 1}
			b := Key{Replica: 1, Epoch: 1}
			if err := st.Put(a, Capture(randData(t, 3, 64<<10), testChunk, 1)); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(b, Capture(randData(t, 3, 32<<10), testChunk, 1)); err != nil {
				t.Fatal(err)
			}
			res, err := st.Compare(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Structural || res.Match {
				t.Fatalf("want structural divergence, got %v", res)
			}
		})
	}
}

func TestStoreEvict(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			for epoch := uint64(1); epoch <= 4; epoch++ {
				data := randData(t, int64(epoch), 32<<10)
				if err := st.Put(Key{Epoch: epoch}, Capture(data, testChunk, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if n := st.Evict(4); n != 3 {
				t.Fatalf("evicted %d, want 3", n)
			}
			for epoch := uint64(1); epoch <= 3; epoch++ {
				if _, err := st.Get(Key{Epoch: epoch}); !errors.Is(err, ErrNotFound) {
					t.Fatalf("epoch %d survived eviction: %v", epoch, err)
				}
			}
			// The newest epoch must still be fully retrievable.
			got, err := st.Get(Key{Epoch: 4})
			if err != nil {
				t.Fatal(err)
			}
			if want := randData(t, 4, 32<<10); string(got.Bytes()) != string(want) {
				t.Fatal("surviving epoch corrupted by eviction")
			}
		})
	}
}

func TestStoreConcurrentPutGetCompare(t *testing.T) {
	for name, st := range backends(t) {
		t.Run(name, func(t *testing.T) {
			const tasks = 8
			var wg sync.WaitGroup
			for task := 0; task < tasks; task++ {
				task := task
				for rep := 0; rep < 2; rep++ {
					rep := rep
					wg.Add(1)
					go func() {
						defer wg.Done()
						data := randData(t, int64(task), 16<<10) // same per task, both replicas
						if err := st.Put(Key{Replica: rep, Task: task, Epoch: 1}, Capture(data, testChunk, 1)); err != nil {
							t.Error(err)
						}
					}()
				}
			}
			wg.Wait()
			for task := 0; task < tasks; task++ {
				task := task
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := st.Compare(Key{Replica: 0, Task: task, Epoch: 1}, Key{Replica: 1, Task: task, Epoch: 1})
					if err != nil {
						t.Error(err)
						return
					}
					if !res.Match {
						t.Errorf("task %d: buddies diverged: %v", task, res)
					}
				}()
			}
			wg.Wait()
		})
	}
}

func TestDiskModeledWriteTime(t *testing.T) {
	cost := &model.DiskSystem{AggregateBandwidth: 1 << 20, BytesPerSocket: 0}
	st, err := NewDisk("", cost)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put(Key{Epoch: 1}, Capture(randData(t, 9, 512<<10), testChunk, 1)); err != nil {
		t.Fatal(err)
	}
	// 512 KiB at 1 MiB/s is 0.5 s of modeled PFS time.
	if got := st.ModeledWriteTime().Seconds(); got < 0.49 || got > 0.51 {
		t.Fatalf("modeled write time %.3fs, want ~0.5s", got)
	}
}

func TestDiskDetectsCorruptionAtRest(t *testing.T) {
	st, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Replica: 1, Node: 0, Task: 0, Epoch: 3}
	if err := st.Put(k, Capture(randData(t, 11, 64<<10), testChunk, 1)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the on-disk file behind the store's back.
	path := st.fileFor(k)
	corruptFileByte(t, path, 40<<10)
	if _, err := st.Get(k); err == nil {
		t.Fatal("corrupted-at-rest checkpoint restored without error")
	}
}
