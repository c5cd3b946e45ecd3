package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
)

// recoveryKiller injects the §2.3 double fault into a commit-paced job. The
// first commit fail-stops r0/n1 — the job has something to recover from and,
// paced, most of its iterations still ahead — and the instant the controller
// opens the medium/weak recovery window for it (point.CoreRecovery fires
// with the crashed replica) a node of the HEALTHY replica dies too: the
// recovery source itself is lost mid-recovery.
type recoveryKiller struct {
	ctrl  *Controller
	pacer *pacing.Pacer

	commits atomic.Int64
	fired   atomic.Bool
}

// armDoubleFault paces cfg and attaches the killer; the caller sets ctrl
// once the controller exists.
func armDoubleFault(cfg *Config) *recoveryKiller {
	k := &recoveryKiller{}
	k.pacer = pace(cfg, &k.ctrl, 500, point.HookFunc(k.fire))
	return k
}

func (k *recoveryKiller) fire(id point.ID, info *point.Info) {
	switch id {
	case point.CoreCommit:
		if k.commits.Add(1) == 1 {
			k.pacer.Stop()
			k.ctrl.KillNode(0, 1)
		}
	case point.CoreRecovery:
		if k.fired.CompareAndSwap(false, true) {
			k.ctrl.KillNode(1-info.Replica, 0)
		}
	}
}

// runWithWatchdog runs the controller with a hang detector: the double
// fault may legitimately fail the job, but it must never deadlock it.
func runWithWatchdog(t *testing.T, ctrl *Controller) (Stats, error) {
	t.Helper()
	type result struct {
		stats Stats
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		stats, err := ctrl.Run()
		ch <- result{stats, err}
	}()
	select {
	case r := <-ch:
		return r.stats, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("controller hung after buddy double fault during recoveryCheckpoint")
		return Stats{}, nil
	}
}

// TestDoubleFaultDuringRecoveryCheckpoint: the healthy replica crashes
// inside recoveryCheckpoint. With spares available the controller must
// fall back to a full rollback and still produce the golden result.
func TestDoubleFaultDuringRecoveryCheckpoint(t *testing.T) {
	// The first fault lands at iteration 500. The healthy replica must still
	// be running when the heartbeat timeout (8 ms) reports it, or the second
	// kill hits finished tasks and the job ends before anyone notices: 30,000
	// iterations are several timeouts of work.
	const nodes, tasks, iters = 2, 2, 30000
	cfg := baseConfig(nodes, tasks, iters)
	cfg.Scheme = Medium
	cfg.Spares = 3
	// The medium scheme answers the first fault with recoveryCheckpoint(0),
	// whose CoreRecovery firing makes the hook kill replica 1's node 0.
	killer := armDoubleFault(&cfg)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	killer.ctrl = ctrl

	stats, err := runWithWatchdog(t, ctrl)
	if err != nil {
		t.Fatalf("double fault with spares must recover, got: %v", err)
	}
	if !killer.fired.Load() {
		t.Fatal("hook never fired: the run ended before the recovery window opened")
	}
	if stats.HardErrors < 2 {
		t.Fatalf("expected both hard errors recovered, got %d", stats.HardErrors)
	}
	verifyFinalState(t, ctrl, nodes, tasks, iters)
}

// TestDoubleFaultWithoutSparesIsTyped: with an empty spare pool the second
// crash is unrecoverable — the controller must return ErrUnrecoverable,
// not hang and not panic.
func TestDoubleFaultWithoutSparesIsTyped(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 200000
	cfg := baseConfig(nodes, tasks, iters)
	cfg.Scheme = Medium
	cfg.Spares = 1 // consumed by the first fault; none left for the second
	killer := armDoubleFault(&cfg)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	killer.ctrl = ctrl

	_, err = runWithWatchdog(t, ctrl)
	if err == nil {
		t.Fatal("expected an unrecoverable error, run succeeded")
	}
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("error is not typed ErrUnrecoverable: %v", err)
	}
}
