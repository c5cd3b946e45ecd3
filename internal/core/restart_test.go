package core

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
)

// restartLog is a hook that records every point.CoreRestart firing as
// (replica, epoch) and hands the first epoch to land on the flush tier to
// flushed.
type restartLog struct {
	mu       sync.Mutex
	restarts [][2]uint64
	flushed  chan uint64
}

func newRestartLog() *restartLog { return &restartLog{flushed: make(chan uint64, 1)} }

func (r *restartLog) Fire(id point.ID, info *point.Info) {
	switch id {
	case point.CoreRestart:
		r.mu.Lock()
		r.restarts = append(r.restarts, [2]uint64{uint64(info.Replica), info.Epoch})
		r.mu.Unlock()
	case point.CoreFlush:
		select {
		case r.flushed <- info.Epoch:
		default:
		}
	}
}

func (r *restartLog) check(t *testing.T, want ...[2]uint64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !slices.Equal(r.restarts, want) {
		t.Errorf("core.restart firings (replica, epoch) = %v, want %v", r.restarts, want)
	}
}

// startPaced runs a commit-paced job (a round every 500 iterations) that
// flushes every commit to flushStore, and returns once the first epoch has
// landed there: the job, its pacer's hook log, the epoch and the job's
// outcome channel.
func startPaced(t *testing.T, nodes, tasks, iters int, flushStore ckptstore.Store) (*Controller, *restartLog, uint64, <-chan error) {
	t.Helper()
	cfg := baseConfig(nodes, tasks, iters)
	cfg.FlushEvery, cfg.FlushRetain, cfg.FlushStore = 1, 1<<10, flushStore
	rec := newRestartLog()
	var ctrl *Controller
	pacer := pace(&cfg, &ctrl, 500, rec)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.Run()
		done <- err
	}()
	select {
	case epoch := <-rec.flushed:
		// A restore stops both replicas: no task may be held by the pacer.
		pacer.Stop()
		return ctrl, rec, epoch, done
	case err := <-done:
		t.Fatalf("job ended (%v) before its first flush landed", err)
	}
	return nil, nil, 0, nil
}

// TestRestoreEpochFiresCoreRestart: an on-demand restore relaunches both
// replicas, so a hook must see one point.CoreRestart per replica at the
// adopted epoch — the boundary after which their progress may go back.
func TestRestoreEpochFiresCoreRestart(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 30000
	ctrl, rec, epoch, done := startPaced(t, nodes, tasks, iters, ckptstore.NewMem())
	if err := ctrl.RestoreEpoch(epoch, 10*time.Second); err != nil {
		t.Fatalf("RestoreEpoch(%d): %v", epoch, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rec.check(t, [2]uint64{0, epoch}, [2]uint64{1, epoch})
	verifyFinalState(t, ctrl, nodes, tasks, iters)
}

// TestResumeFiresCoreRestart: a Config.ResumeEpochs warm start relaunches
// both replicas from the adopted epoch, and a cold-start fallback from
// factory state (epoch 0); each relaunch fires point.CoreRestart once.
func TestResumeFiresCoreRestart(t *testing.T) {
	const nodes, tasks, iters = 1, 2, 4000
	flush := ckptstore.NewMem()
	first := baseConfig(nodes, tasks, iters)
	first.FlushEvery, first.FlushRetain, first.FlushStore = 1, 4, flush
	var ctrl *Controller
	pace(&first, &ctrl, 500, nil)
	ctrl, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(); err != nil {
		t.Fatal(err)
	}
	epochs := ckptstore.CompleteEpochs(flush, 1, nodes*tasks)
	if len(epochs) == 0 {
		t.Fatal("first job left no complete durable epoch")
	}
	for epoch, n := range ckptstore.EpochInventory(flush) {
		if n != nodes*tasks {
			t.Fatalf("durable epoch %d holds %d checkpoints, want %d (N·T)", epoch, n, nodes*tasks)
		}
	}
	newest := epochs[len(epochs)-1]

	for _, tc := range []struct {
		name    string
		store   ckptstore.Store
		resume  []uint64
		resumed uint64
	}{
		{"warm", flush, epochs, newest},
		{"cold", ckptstore.NewMem(), []uint64{41, 42}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(nodes, tasks, iters)
			cfg.FlushEvery, cfg.FlushStore, cfg.ResumeEpochs = 1, tc.store, tc.resume
			rec := newRestartLog()
			cfg.Chaos = rec
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats, err := ctrl.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.ResumedEpoch != tc.resumed {
				t.Errorf("resumed epoch = %d, want %d", stats.ResumedEpoch, tc.resumed)
			}
			rec.check(t, [2]uint64{0, tc.resumed}, [2]uint64{1, tc.resumed})
			verifyFinalState(t, ctrl, nodes, tasks, iters)
		})
	}
}

// TestRestoreCorruptEpochTouchesNothing pins fetch before touch: a durable
// epoch with one task corrupted at rest fails RestoreEpoch before either
// replica stops — no restart fires, no rollback is booked — and the job
// runs on to the bit-identical result.
func TestRestoreCorruptEpochTouchesNothing(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 30000
	disk, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ctrl, rec, epoch, done := startPaced(t, nodes, tasks, iters, disk)
	// The pair copy of the last node's last task is the last one the fetch
	// reads.
	if err := disk.CorruptAtRest(ckptstore.Key{Replica: 0, Node: nodes - 1, Task: tasks - 1, Epoch: epoch}, 16, 2); err != nil {
		t.Fatal(err)
	}
	before := ctrl.Progress().Rollbacks
	err = ctrl.RestoreEpoch(epoch, 10*time.Second)
	if err == nil || errors.Is(err, ErrNotRunning) {
		t.Fatalf("RestoreEpoch of a corrupt epoch = %v, want a verification failure", err)
	}
	if !errors.Is(err, ckptstore.ErrCorrupt) {
		t.Errorf("RestoreEpoch error %v does not wrap ckptstore.ErrCorrupt", err)
	}
	if after := ctrl.Progress().Rollbacks; after != before {
		t.Errorf("rollbacks %d -> %d across a failed restore, want unchanged", before, after)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	rec.check(t)
	verifyFinalState(t, ctrl, nodes, tasks, iters)
}
