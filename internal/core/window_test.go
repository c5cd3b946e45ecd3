package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"acr/internal/chaos/point"
	"acr/internal/pup"
	"acr/internal/runtime"
)

// windowProg is a one-word accumulator whose updates serialize on a mutex,
// so a hook may flip a bit in a *running* task race-free — which is what an
// SDC striking between two checkpoints is. Integer addition carries a
// flipped bit forward as a constant offset, so the corrupted run's final
// value is the golden one ± the flipped bit's weight no matter when the
// flip landed.
type windowProg struct {
	mu    sync.Mutex
	Iter  int
	Iters int
	Acc   uint64
}

func (w *windowProg) Pup(p *pup.PUPer) {
	p.Int(&w.Iter)
	p.Int(&w.Iters)
	p.Uint64(&w.Acc)
}

func (w *windowProg) Run(ctx *runtime.Ctx) error {
	for {
		w.mu.Lock()
		done := w.Iter >= w.Iters
		if !done {
			w.Acc += uint64(w.Iter)*2654435761 + 1
			w.Iter++
		}
		it := w.Iter
		w.mu.Unlock()
		if done {
			return nil
		}
		if err := ctx.Progress(it - 1); err != nil {
			return err
		}
	}
}

// TestRecoveryWindowEscape makes the medium/weak vulnerability window of
// §2.3 (Figure 7b) executable: SDC that strikes the healthy replica after
// the last verified checkpoint and before the trusted recovery checkpoint
// is committed undetected, copied into the crashed replica, and — because
// both replicas now agree on the wrong value — invisible to every later
// comparison. The scenario is driven from injection points only: the first
// progress report requests a compared checkpoint and every task waits in
// its report until that round has opened (so its cut lands on an early
// iteration, not after the job's end), its commit kills replica 0, the
// medium scheme's recoveryCheckpoint fires core.recovery, and the hook
// flips one bit in the healthy replica right there.
func TestRecoveryWindowEscape(t *testing.T) {
	const iters = 50000
	const flip = uint64(1) << 40
	cfg := Config{
		NodesPerReplica:   1,
		TasksPerNode:      1,
		Spares:            1,
		Factory:           func(runtime.Addr) runtime.Program { return &windowProg{Iters: iters} },
		Scheme:            Medium,
		Comparison:        FullCompare,
		HeartbeatInterval: baseConfig(1, 1, 1).HeartbeatInterval,
		HeartbeatTimeout:  baseConfig(1, 1, 1).HeartbeatTimeout,
	}
	var ctrl *Controller
	var requested, killed, corrupted atomic.Bool
	opened := make(chan struct{})
	var open sync.Once
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		switch id {
		case point.RuntimeProgress:
			if requested.CompareAndSwap(false, true) {
				ctrl.PredictFailure()
			}
			<-opened
		case point.CorePreConsensus:
			open.Do(func() { close(opened) })
		case point.CoreCommit:
			if killed.CompareAndSwap(false, true) {
				ctrl.KillNode(0, 0)
			} else {
				// The trusted recovery checkpoint just committed: ask for a
				// compared round on top of it, which must pass clean.
				ctrl.PredictFailure()
			}
		case point.CoreRecovery:
			if info.Replica != 0 {
				t.Errorf("recovery fired for replica %d, want the killed replica 0", info.Replica)
			}
			if corrupted.CompareAndSwap(false, true) {
				ctrl.Machine().CorruptTask(runtime.Addr{Replica: 1}, func(p pup.Pupable) {
					w := p.(*windowProg)
					w.mu.Lock()
					w.Acc ^= flip
					w.mu.Unlock()
				})
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
	if !corrupted.Load() || stats.HardErrors != 1 {
		t.Fatalf("scenario did not unfold: corrupted=%v hard errors=%d", corrupted.Load(), stats.HardErrors)
	}
	if stats.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want the compared one and the trusted recovery one", stats.Checkpoints)
	}
	if stats.SDCDetected != 0 {
		t.Fatalf("sdc detected = %d: the trusted recovery checkpoint has no comparison to detect with", stats.SDCDetected)
	}
	var golden uint64
	for i := 0; i < iters; i++ {
		golden += uint64(i)*2654435761 + 1
	}
	var final [2]windowProg
	for rep := range final {
		data, err := ctrl.Machine().PackTask(runtime.Addr{Replica: rep})
		if err != nil {
			t.Fatal(err)
		}
		if err := pup.Unpack(data, &final[rep]); err != nil {
			t.Fatal(err)
		}
		if final[rep].Iter != iters {
			t.Fatalf("replica %d stopped at iteration %d, want %d", rep, final[rep].Iter, iters)
		}
	}
	if final[0].Acc != final[1].Acc {
		t.Fatalf("replicas disagree (%#x vs %#x): the recovery did not copy the healthy replica's state", final[0].Acc, final[1].Acc)
	}
	if got := final[0].Acc; got != golden+flip && got != golden-flip {
		t.Fatalf("final value %#x, want golden %#x off by exactly the flipped bit %#x — the escape of Fig 7b", got, golden, flip)
	}
}

// TestInjectedSDCSkipsRecoveryRound pins InjectSDCAtNextCheckpoint's
// contract: an address queued while a weak recovery is pending is not
// consumed by the trusted recovery round (where it would escape by
// construction) but by the next compared round, which detects it and rolls
// it back. Driven from injection points: the first compared commit kills a
// node and queues the injection, the first progress report after the
// failure was handled requests the weak scheme's recovery checkpoint, and
// that round's trusted commit requests the compared round.
func TestInjectedSDCSkipsRecoveryRound(t *testing.T) {
	cfg := baseConfig(2, 1, 20000)
	cfg.Scheme = Weak
	cfg.CheckpointInterval = 0
	var ctrl *Controller
	var requested, killed, recovering atomic.Bool
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		switch id {
		case point.RuntimeProgress:
			if requested.CompareAndSwap(false, true) {
				ctrl.PredictFailure()
			}
			if ctrl.Progress().HardErrors == 1 && recovering.CompareAndSwap(false, true) {
				ctrl.PredictFailure()
			}
		case point.CoreCommit:
			if killed.CompareAndSwap(false, true) {
				ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 0, Task: 0})
				ctrl.KillNode(0, 1)
			} else if ctrl.Progress().SDCDetected == 0 {
				ctrl.PredictFailure()
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
	if stats.HardErrors != 1 {
		t.Fatalf("hard errors = %d, want 1", stats.HardErrors)
	}
	if stats.SDCDetected != 1 {
		t.Fatalf("sdc detected = %d, want 1: the queued injection must reach a compared round", stats.SDCDetected)
	}
	verifyFinalState(t, ctrl, 2, 1, 20000)
}
