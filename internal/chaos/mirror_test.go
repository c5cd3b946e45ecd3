package chaos

import (
	"bytes"
	"fmt"
	"testing"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/core"
)

// mirrorEngine arms SensitivityScenario's Both-mode corruption (replica 0,
// n0/t0, its first store write) on an engine bound to an idle controller
// over the memory tier.
func mirrorEngine(t *testing.T) *Engine {
	t.Helper()
	scn := SensitivityScenario()
	scn.Faults = scn.Faults[:1]
	e := NewEngine(&scn, 3, nil)
	ctrl, err := core.New(core.Config{
		NodesPerReplica: scn.Nodes,
		TasksPerNode:    scn.Tasks,
		Factory:         ringFactory(scn.Tasks, scn.Iters, 0),
		Chaos:           e,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Bind(ctrl)
	return e
}

// storeWrite fires the store write of rep's n0/t0 checkpoint at epoch 1.
func storeWrite(e *Engine, rep int, ck *ckptstore.Checkpoint) {
	e.Fire(point.StoreWrite, &point.Info{Replica: rep, Node: 0, Task: 0, Epoch: 1, Payload: ck})
}

// TestBothModeMirrorIgnoresWriteOrder: each replica is captured the
// moment its own tasks park, so replica 1's write of a (node, task, epoch)
// may land before replica 0's. Either way a Both-mode corruption must
// leave the identical flip in both stored copies; and where a recovery
// round stored one checkpoint under both keys, that one copy is flipped
// exactly once.
func TestBothModeMirrorIgnoresWriteOrder(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 64)
	for _, order := range [][2]int{{1, 0}, {0, 1}} {
		t.Run(fmt.Sprintf("r%d-first", order[0]), func(t *testing.T) {
			e := mirrorEngine(t)
			cks := [2]*ckptstore.Checkpoint{ckptstore.Capture(bytes.Clone(payload), 0, 1), ckptstore.Capture(bytes.Clone(payload), 0, 1)}
			for _, rep := range order {
				storeWrite(e, rep, cks[rep])
			}
			if a, b := cks[0].Bytes(), cks[1].Bytes(); bytes.Equal(a, payload) {
				t.Errorf("replica 0's copy was not corrupted")
			} else if !bytes.Equal(a, b) {
				t.Errorf("stored copies differ:\nr0 %x\nr1 %x", a, b)
			}

			e = mirrorEngine(t)
			shared := ckptstore.Capture(bytes.Clone(payload), 0, 1)
			for _, rep := range order {
				storeWrite(e, rep, shared)
			}
			if diff := flippedBits(shared.Bytes(), payload); diff != 1 {
				t.Errorf("a copy shared by both keys differs in %d bits, want 1", diff)
			}
		})
	}
}

// flippedBits counts the bits in which a and b differ.
func flippedBits(a, b []byte) int {
	n := 0
	for i := range a {
		for x := a[i] ^ b[i]; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}
