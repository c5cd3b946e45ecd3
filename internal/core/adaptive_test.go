package core

import (
	"testing"
	"time"
)

// Before the first round commits there is no measured checkpoint cost, so
// the adaptive path must not invent one: it falls back to the most
// protective legal interval, the clamp's lower bound (CheckpointInterval/8),
// until a real measurement exists.
func TestAdaptiveIntervalFallsBackToMinIntervalUnmeasured(t *testing.T) {
	cfg := baseConfig(1, 1, 100)
	cfg.Adaptive = true
	cfg.Estimator = MeanEstimator
	cfg.CheckpointInterval = 20 * time.Millisecond // clamp [2.5 ms, 160 ms]
	lo, hi := cfg.intervalBounds()
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two failures so the MTBF estimate is available; the missing piece is
	// the checkpoint cost delta.
	ctrl.history.Record(1.0)
	ctrl.history.Record(3.0)
	if len(ctrl.stats.CheckpointTimes) != 0 {
		t.Fatal("precondition: no committed checkpoint rounds")
	}
	ctrl.interval = cfg.CheckpointInterval
	ctrl.adaptInterval()
	if ctrl.interval != lo {
		t.Fatalf("unmeasured adaptInterval set %v, want the lower bound %v", ctrl.interval, lo)
	}

	// Once a round has committed, Young/Daly takes over: delta = 4 ms,
	// MTBF = 2 s gives tau = sqrt(2*0.004*2) ~ 126 ms, inside the clamp.
	ctrl.stats.CheckpointTimes = []time.Duration{4 * time.Millisecond}
	ctrl.adaptInterval()
	if ctrl.interval == lo || ctrl.interval == hi {
		t.Fatalf("measured adaptInterval hit a clamp: %v", ctrl.interval)
	}
	if got, want := ctrl.interval, 126*time.Millisecond; got < want-5*time.Millisecond || got > want+5*time.Millisecond {
		t.Fatalf("measured adaptInterval = %v, want ~%v", got, want)
	}
}

// avgCheckpointSeconds reports measured=false only on an empty history.
func TestAvgCheckpointSeconds(t *testing.T) {
	ctrl, err := New(baseConfig(1, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if d, measured := ctrl.avgCheckpointSeconds(); measured || d != 0 {
		t.Fatalf("empty history: got (%v, %v), want (0, false)", d, measured)
	}
	ctrl.stats.CheckpointTimes = []time.Duration{2 * time.Millisecond, 4 * time.Millisecond}
	d, measured := ctrl.avgCheckpointSeconds()
	if !measured || d != 0.003 {
		t.Fatalf("got (%v, %v), want (0.003, true)", d, measured)
	}
}
