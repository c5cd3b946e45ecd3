package acrd

import (
	"testing"

	"acr/internal/ckptstore"
)

// TestFlushTrackerForwards: the tracker reports an epoch complete exactly
// once, after `want` distinct keys landed, and stays transparent to
// enumeration and ckptstore.As (the forwarding itself is ckptstore.Layer's,
// tested there).
func TestFlushTrackerForwards(t *testing.T) {
	mem := ckptstore.NewMem()
	var completed []uint64
	tr := newFlushTracker(mem, 2, func(e uint64) { completed = append(completed, e) })
	if tr.Name() != "mem(tracked)" {
		t.Errorf("name = %q, want mem(tracked)", tr.Name())
	}
	ck := ckptstore.Capture([]byte("payload"), 0, 1)
	for _, k := range []ckptstore.Key{{Epoch: 5}, {Epoch: 5}, {Replica: 1, Epoch: 5}, {Replica: 1, Epoch: 5}} {
		if err := tr.Put(k, ck); err != nil {
			t.Fatal(err)
		}
	}
	if len(completed) != 1 || completed[0] != 5 {
		t.Errorf("completed epochs = %v, want [5] once", completed)
	}
	if got := len(tr.Keys()); got != 2 {
		t.Errorf("keys through the tracker = %d, want 2", got)
	}
	if m, ok := ckptstore.As[*ckptstore.Mem](tr); !ok || m != mem {
		t.Error("ckptstore.As does not see the Mem under the tracker")
	}
}
