package core

import (
	"bytes"
	"reflect"
	"testing"

	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/runtime"
)

// fastpathController builds an idle controller over the bench workload. The
// machine is never started: every task sits quiescent at its deterministic
// factory state, which satisfies the capture/compare quiescence contract.
func fastpathController(t *testing.T, nodes, tasks int, comparison Comparison) *Controller {
	t.Helper()
	ctrl, err := New(Config{
		NodesPerReplica: nodes,
		TasksPerNode:    tasks,
		Factory:         benchFactory(64),
		Comparison:      comparison,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ctrl
}

func errEq(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// TestFastCaptureMatchesSerialCapture checks the round body's capture —
// size-hint single-pass packing, pooled buffers, recycled sum slices —
// against an independent reference built from Machine.PackTask and
// ckptstore.Capture, byte for byte.
func TestFastCaptureMatchesSerialCapture(t *testing.T) {
	const nodes, tasks = 3, 2
	ctrl := fastpathController(t, nodes, tasks, FullCompare)
	if ctrl.pool == nil {
		t.Fatalf("controller-owned store did not get a recycling pool")
	}
	capture := func(epoch uint64) {
		t.Helper()
		if _, _, err := ctrl.runRound(epoch, consensus.OnlyReplica(0), nil, nil); err != nil {
			t.Fatalf("capture epoch %d: %v", epoch, err)
		}
	}
	capture(1)
	snapshot := make(map[ckptstore.Key][]byte)
	for n := 0; n < nodes; n++ {
		for task := 0; task < tasks; task++ {
			data, err := ctrl.machine.PackTask(runtime.Addr{Replica: 0, Node: n, Task: task})
			if err != nil {
				t.Fatal(err)
			}
			ref := ckptstore.Capture(data, ctrl.cfg.ChunkSize, 1)
			got, err := ctrl.store.Get(ctrl.key(0, n, task, 1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatalf("n%d/t%d: fast capture bytes differ from the PackTask reference", n, task)
			}
			if ref.Root != got.Root || !reflect.DeepEqual(ref.Sums, got.Sums) {
				t.Fatalf("n%d/t%d: fast capture checksums differ from the ckptstore.Capture reference", n, task)
			}
			snapshot[ctrl.key(0, n, task, 3)] = data
		}
	}
	// Retire two epochs into the pool and capture again through recycled
	// buffers: contents must still be exact, nothing may alias.
	capture(2)
	ctrl.store.Evict(3)
	capture(3)
	for key, want := range snapshot {
		got, err := ctrl.store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%v: recycled capture bytes differ", key)
		}
	}
	if ctrs := ctrl.pool.Counters(); ctrs.Hits == 0 {
		t.Fatalf("recycled capture never hit the pool: %+v", ctrs)
	}
	if fast, _ := ctrl.machine.PackCounters(); fast == 0 {
		t.Fatalf("fast capture never took the single-pass packing path")
	}
}

// TestPoolRecyclingNoAliasing mutates a buffer handed out by the pool and
// re-captures: the corruption must land only in the new capture, never
// bleed into a previously stored epoch.
func TestPoolRecyclingNoAliasing(t *testing.T) {
	pool := ckptstore.NewPool(4)
	first := ckptstore.Capture(bytes.Repeat([]byte{0xAA}, 256), 64, 1)
	firstBytes := append([]byte(nil), first.Bytes()...)
	keep := ckptstore.Capture(bytes.Repeat([]byte{0xBB}, 256), 64, 1)
	pool.Put(first)

	ck := pool.Get(256)
	if ck != first {
		t.Fatalf("pool did not hand back the retired checkpoint")
	}
	buf := append(ck.Scratch(), bytes.Repeat([]byte{0xCC}, 256)...)
	recaptured := ckptstore.CaptureInto(ck, buf, 64, 1)
	if !bytes.Equal(recaptured.Bytes(), bytes.Repeat([]byte{0xCC}, 256)) {
		t.Fatalf("recaptured payload wrong")
	}
	// The retired buffer was legitimately overwritten; the still-live
	// checkpoint must be untouched.
	if !bytes.Equal(keep.Bytes(), bytes.Repeat([]byte{0xBB}, 256)) {
		t.Fatalf("recycling corrupted an unrelated live checkpoint")
	}
	// And the recycled object is the same allocation — that's the point —
	// so the old epoch's bytes are gone, which is why stores must evict
	// before recycling.
	if bytes.Equal(recaptured.Bytes(), firstBytes) {
		t.Fatalf("recycled capture kept stale bytes")
	}
}

// TestFirstDiffChunk pins the localization helper, including the unequal
// length case that used to slice out of range: a corrupted length prefix
// shifts every later byte, and the old code indexed the shorter buffer with
// the longer one's length.
func TestFirstDiffChunk(t *testing.T) {
	const cs = 4
	cases := []struct {
		name string
		a, b []byte
		want int
	}{
		{"equal", []byte("abcdefgh"), []byte("abcdefgh"), -1},
		{"both empty", nil, nil, -1},
		{"first byte", []byte("Xbcdefgh"), []byte("abcdefgh"), 0},
		{"second chunk", []byte("abcdXfgh"), []byte("abcdefgh"), 1},
		{"a short prefix of b", []byte("abcd"), []byte("abcdefgh"), 1},
		{"b short prefix of a", []byte("abcdefgh"), []byte("ab"), 0},
		{"empty vs non-empty", nil, []byte("abcd"), 0},
		{"diff before length diff", []byte("Xbcd"), []byte("abcdefgh"), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := firstDiffChunk(tc.a, tc.b, cs); got != tc.want {
				t.Fatalf("firstDiffChunk(%q, %q, %d) = %d, want %d", tc.a, tc.b, cs, got, tc.want)
			}
		})
	}
	// chunkSize <= 0 selects the default without dividing by zero.
	if got := firstDiffChunk([]byte{1}, []byte{2}, 0); got != 0 {
		t.Fatalf("default chunk size: got %d, want 0", got)
	}
}
