package core

import (
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/runtime"
)

// TestSemiBlockingCheckpointing: the §4.2 asynchronous-checkpointing
// extension must preserve all correctness properties — SDC detection,
// rollback, exact recovery — while pausing the application only for the
// local capture. Rounds are paced every 500 iterations, so rounds commit
// after the rollback however fast the tasks run.
func TestSemiBlockingCheckpointing(t *testing.T) {
	cfg := baseConfig(2, 2, 4000)
	cfg.SemiBlocking = true
	var ctrl *Controller
	pace(&cfg, &ctrl, 500, nil)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 0, Node: 0, Task: 1})
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SDCDetected == 0 {
		t.Fatal("semi-blocking comparison missed the injected corruption")
	}
	if stats.Checkpoints == 0 {
		t.Fatal("no checkpoints committed")
	}
	if len(stats.BlockedTimes) != stats.Checkpoints {
		t.Fatalf("blocked-time records %d != checkpoints %d", len(stats.BlockedTimes), stats.Checkpoints)
	}
	for i, bt := range stats.BlockedTimes {
		if bt > stats.CheckpointTimes[i] {
			t.Fatalf("round %d: blocked %v exceeds total %v", i, bt, stats.CheckpointTimes[i])
		}
	}
	verifyFinalState(t, ctrl, 2, 2, 4000)
}

func TestSemiBlockingWithHardError(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.SemiBlocking = true
	cfg.Scheme = Weak
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(12 * time.Millisecond)
		ctrl.KillNode(0, 0)
	}()
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors != 1 {
		t.Fatalf("hard errors = %d, want 1", stats.HardErrors)
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}

// TestPredictedCheckpoint: a failure prediction triggers an immediate
// dynamic checkpoint even with periodic checkpointing disabled, so the
// subsequent failure loses (almost) no work. The scenario is driven from
// injection points, not wall-clock sleeps: the prediction fires on an
// early progress report, and it "comes true" the moment its dynamic
// checkpoint commits — deterministic under arbitrary scheduler load,
// where a sleep-based kill can overshoot the whole run.
func TestPredictedCheckpoint(t *testing.T) {
	cfg := baseConfig(2, 1, 20000)
	cfg.Scheme = Strong
	cfg.CheckpointInterval = 0 // no periodic cadence at all
	var ctrl *Controller
	var predicted, killed atomic.Bool
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		switch id {
		case point.RuntimeProgress:
			if predicted.CompareAndSwap(false, true) {
				ctrl.PredictFailure()
			}
		case point.CoreCommit:
			// With no periodic cadence, the only possible commit is the
			// prediction's dynamic checkpoint.
			if killed.CompareAndSwap(false, true) {
				ctrl.KillNode(1, 0) // the prediction comes true
			}
		}
	})
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Predicted != 1 {
		t.Fatalf("predicted checkpoints = %d, want 1", stats.Predicted)
	}
	if stats.Checkpoints < 1 {
		t.Fatal("prediction should have produced a committed checkpoint")
	}
	if stats.HardErrors != 1 {
		t.Fatalf("hard errors = %d, want 1", stats.HardErrors)
	}
	verifyFinalState(t, ctrl, 2, 1, 20000)
}

func TestPredictionCoalesces(t *testing.T) {
	// Long enough that the job cannot finish before the event loop first
	// looks at the queued predictions, however the scheduler is loaded.
	ctrl, err := New(baseConfig(1, 1, 20000))
	if err != nil {
		t.Fatal(err)
	}
	// Flooding predictions before Run must not panic or block; the
	// channel coalesces beyond its buffer.
	for i := 0; i < 100; i++ {
		ctrl.PredictFailure()
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Predicted == 0 {
		t.Fatal("queued predictions were lost entirely")
	}
}
