package runtime

import (
	"errors"
	"fmt"
	"testing"

	"acr/internal/ckptstore"
)

// failingPuts fails Put for the listed keys and stores everything else.
type failingPuts struct {
	ckptstore.Store
	fail map[ckptstore.Key]error
}

func (s failingPuts) Put(k ckptstore.Key, ck *ckptstore.Checkpoint) error {
	if err, ok := s.fail[k]; ok {
		return err
	}
	return s.Store.Put(k, ck)
}

// TestCaptureReplicaLowestFailureWins: when two tasks' stores fail, the
// error CaptureReplica returns is the lower (node, task)'s at every worker
// count, and every other task is still captured.
func TestCaptureReplicaLowestFailureWins(t *testing.T) {
	m := newTestMachine(t, Config{NodesPerReplica: 3, TasksPerNode: 4, Factory: trackedVecFactory(64)})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	const epoch = 1
	low := ckptstore.Key{Replica: 0, Node: 1, Task: 0, Epoch: epoch}
	high := ckptstore.Key{Replica: 0, Node: 2, Task: 3, Epoch: epoch}
	lowErr, highErr := errors.New("low key full"), errors.New("high key full")
	for _, workers := range []int{1, 4} {
		for run := 0; run < 20; run++ {
			mem := ckptstore.NewMem()
			st := failingPuts{Store: mem, fail: map[ckptstore.Key]error{low: lowErr, high: highErr}}
			err := m.CaptureReplica(0, epoch, st, CaptureOptions{workers: workers})
			if !errors.Is(err, lowErr) {
				t.Fatalf("workers %d run %d: err = %v, want the %v error", workers, run, err, low)
			}
			for n := 0; n < 3; n++ {
				for tk := 0; tk < 4; tk++ {
					k := ckptstore.Key{Replica: 0, Node: n, Task: tk, Epoch: epoch}
					_, gerr := mem.Get(k)
					if failed := k == low || k == high; failed != (gerr != nil) {
						t.Fatalf("workers %d run %d: %s stored = %v", workers, run, fmt.Sprint(k), gerr == nil)
					}
				}
			}
		}
	}
}
