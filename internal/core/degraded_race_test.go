package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
)

// TestFreeSpareConcurrentWithFailures drives the fleet scheduler's exact
// interleaving under the race detector: hard errors fold nodes on the
// controller goroutine while FreeSpare — the spare-grant entry point — is
// called from foreign goroutines, racing AddSpare/ExpandFolded against the
// in-flight recovery restart. Every fold is answered by one asynchronous
// grant, so the job must end fully re-expanded with a bit-identical result.
func TestFreeSpareConcurrentWithFailures(t *testing.T) {
	cfg := baseConfig(3, 2, 24000)
	cfg.Spares = 0
	cfg.Degraded = true
	var ctrl *Controller
	var commits atomic.Int64
	var grants sync.WaitGroup
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		if id != point.CoreCommit {
			return
		}
		switch commits.Add(1) {
		case 2:
			ctrl.KillNode(0, 1)
		case 4:
			ctrl.KillNode(1, 2)
		}
	})
	// The grant arrives off the controller goroutine, like a fleet
	// scheduler brokering a preempted spare.
	cfg.OnFold = func() {
		grants.Add(1)
		go func() {
			defer grants.Done()
			ctrl.FreeSpare()
		}()
	}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	grants.Wait()

	if stats.HardErrors != 2 {
		t.Errorf("hard errors = %d, want 2", stats.HardErrors)
	}
	// An early grant can turn the second failure into a plain spare
	// replacement; either way both failures were absorbed.
	if stats.Folds < 1 || stats.Folds+stats.SparesUsed != 2 {
		t.Errorf("folds = %d, spares used = %d, want folds >= 1 summing to 2", stats.Folds, stats.SparesUsed)
	}
	// Post-join the machine must be fully re-expanded: one grant per fold.
	if folded := ctrl.Machine().FoldedCount(); folded != 0 {
		t.Errorf("folded nodes after all grants = %d, want 0", folded)
	}
	if expands := ctrl.Machine().ExpandCount(); expands != int64(stats.Folds) {
		t.Errorf("expands = %d, want one per fold (%d)", expands, stats.Folds)
	}
	verifyFinalState(t, ctrl, 3, 2, 24000)
}

// TestFreeSpareStorm hammers FreeSpare from many goroutines while failures
// are being recovered — gratuitous grants (more spares than folds) must be
// harmless, never deadlock, and leave the machine healthy.
func TestFreeSpareStorm(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.Spares = 0
	cfg.Degraded = true
	var ctrl *Controller
	var commits atomic.Int64
	var storm sync.WaitGroup
	var pacer *pacing.Pacer
	pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
		if id != point.CoreCommit {
			return
		}
		if commits.Add(1) == 2 {
			pacer.Stop() // recovery must find no task held by the pacer
			ctrl.KillNode(1, 0)
			for i := 0; i < 8; i++ {
				storm.Add(1)
				go func() {
					defer storm.Done()
					ctrl.FreeSpare()
				}()
			}
		}
	}))
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	storm.Wait()
	if stats.HardErrors != 1 {
		t.Errorf("hard errors = %d, want 1", stats.HardErrors)
	}
	if folded := ctrl.Machine().FoldedCount(); folded != 0 {
		t.Errorf("folded nodes at end = %d, want 0", folded)
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}
