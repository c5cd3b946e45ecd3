package core

import (
	"errors"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/pacing"
	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/netsim"
	"acr/internal/runtime"
)

// killPairAtCommit returns a hook that fail-stops both buddies of the
// given logical node on the n-th commit — the correlated double fault the
// escalation ladder exists for. Driving the kill from the commit point
// keeps the test deterministic under scheduler load.
func killPairAtCommit(ctrl **Controller, node, nth int) point.Hook {
	var commits atomic.Int64
	return point.HookFunc(func(id point.ID, info *point.Info) {
		if id != point.CoreCommit {
			return
		}
		if commits.Add(1) == int64(nth) {
			(*ctrl).KillNode(0, node)
			(*ctrl).KillNode(1, node)
		}
	})
}

// TestLadderDiskFallback: a buddy-pair double fault after an unflushed
// commit destroys both in-memory copies of the node's checkpoints; both
// replicas must escalate past tier 0 to the durable flush tier, roll back
// one committed epoch of work, and still produce the bit-identical final
// state.
func TestLadderDiskFallback(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.Spares = 4
	cfg.FlushEvery = 2 // durable epochs: 2, 4, ...
	var ctrl *Controller
	// Kill at commit 3: committed epoch 3 is in memory only, the durable
	// tier holds epoch 2 — recovery must land on tier 2 with depth 1. The
	// rounds are paced in iterations (a round every 500 of the 8,000), so
	// the job cannot finish before its third commit.
	kill := killPairAtCommit(&ctrl, 1, 3)
	var commits atomic.Int64
	var pacer *pacing.Pacer
	pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.CoreCommit && commits.Add(1) == 3 {
			pacer.Stop() // recovery must find no task held by the pacer
		}
		kill.Fire(id, info)
	}))
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BuddyPairLosses != 1 {
		t.Errorf("buddy pair losses = %d, want 1", stats.BuddyPairLosses)
	}
	if stats.HardErrors != 2 {
		t.Errorf("hard errors = %d, want 2", stats.HardErrors)
	}
	if stats.FlushedEpochs < 1 {
		t.Errorf("flushed epochs = %d, want >= 1", stats.FlushedEpochs)
	}
	if stats.FlushErrors != 0 {
		t.Errorf("flush errors = %d, want 0", stats.FlushErrors)
	}
	// Both replicas lost the node's tier-0 copies, so both restores must
	// have come from the durable tier at an older epoch.
	if stats.TierRecoveries[0] != 0 || stats.TierRecoveries[2] != 2 {
		t.Errorf("tier recoveries = %v, want [0 0 2]", stats.TierRecoveries)
	}
	if stats.MaxRollbackDepth != 1 {
		t.Errorf("max rollback depth = %d, want 1", stats.MaxRollbackDepth)
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}

// getLog is a durable tier that counts its Gets per replica key.
type getLog struct {
	ckptstore.Layer
	gets [2]atomic.Int64
}

func (s *getLog) Get(k ckptstore.Key) (*ckptstore.Checkpoint, error) {
	s.gets[k.Replica].Add(1)
	return s.Store.Get(k)
}

// TestDoubleFaultRestoresReplicaOneFromPairCopy: a buddy-pair double fault
// at a flushed commit escalates both replicas to the Disk flush tier at the
// committed epoch (tier 1). The tier keeps one copy per compared pair, so
// replica 1 launches from replica 0's checkpoints: no Get ever names a
// replica-1 key, the disk holds none, and the final state is bit-identical
// to the failure-free run.
func TestDoubleFaultRestoresReplicaOneFromPairCopy(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 6000
	disk, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	tier := &getLog{Layer: ckptstore.Layer{Store: disk}}
	cfg := baseConfig(nodes, tasks, iters)
	cfg.Spares = 4
	cfg.FlushEvery, cfg.FlushStore = 2, tier // durable epochs: 2, 4, ...
	var ctrl *Controller
	// Kill at commit 4: the committed epoch is itself flushed, and its
	// writer has settled (a chaos hook joins the writers before each round).
	kill := killPairAtCommit(&ctrl, 1, 4)
	var commits atomic.Int64
	var pacer *pacing.Pacer
	pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.CoreCommit && commits.Add(1) == 4 {
			// Epoch 2 has landed; epoch 4's flush starts after this firing.
			if keys := disk.Keys(); len(keys) != nodes*tasks {
				t.Errorf("disk holds %d checkpoints of one flushed epoch, want %d (N·T)", len(keys), nodes*tasks)
			}
			pacer.Stop() // recovery must find no task held by the pacer
		}
		kill.Fire(id, info)
	}))
	ctrl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BuddyPairLosses != 1 {
		t.Fatalf("buddy pair losses = %d, want 1", stats.BuddyPairLosses)
	}
	if want := [4]int{0, 2, 0, 0}; stats.TierRecoveries != want {
		t.Errorf("tier recoveries = %v, want %v: both replicas from the flushed committed epoch", stats.TierRecoveries, want)
	}
	if got := tier.gets[0].Load(); got != 2*nodes*tasks {
		t.Errorf("the ladder read %d pair copies, want %d (N·T per replica)", got, 2*nodes*tasks)
	}
	if got := tier.gets[1].Load(); got != 0 {
		t.Errorf("the ladder asked the durable tier for %d replica-1 keys, want 0", got)
	}
	for _, k := range disk.Keys() {
		if k.Replica != 0 {
			t.Fatalf("the durable tier holds %v: it keeps replica 0's copy only", k)
		}
	}
	verifyFinalState(t, ctrl, nodes, tasks, iters)
}

// TestLadderEmptyIsUnrecoverable: the same double fault without a durable
// tier leaves the ladder genuinely empty — the run must fail with
// ErrUnrecoverable (and not misreport spare exhaustion as the cause).
func TestLadderEmptyIsUnrecoverable(t *testing.T) {
	cfg := baseConfig(2, 2, 200000)
	cfg.Spares = 4
	var ctrl *Controller
	cfg.Chaos = killPairAtCommit(&ctrl, 0, 2)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("expected ErrUnrecoverable, got %v", err)
	}
	if errors.Is(err, runtime.ErrSpareExhausted) {
		t.Fatalf("spare exhaustion misreported as cause: %v", err)
	}
	if stats.BuddyPairLosses != 1 {
		t.Errorf("buddy pair losses = %d, want 1", stats.BuddyPairLosses)
	}
}

// TestDegradedFold: with the spare pool empty and Degraded enabled, a hard
// error folds the dead node onto the least-loaded survivor of its replica
// and the job completes shrunk — with the same bit-identical result.
func TestDegradedFold(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.Spares = 0
	cfg.Degraded = true
	var ctrl *Controller
	var commits atomic.Int64
	var pacer *pacing.Pacer
	pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.CoreCommit && commits.Add(1) == 2 {
			pacer.Stop() // recovery must find no task held by the pacer
			ctrl.KillNode(1, 0)
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
	if stats.Folds != 1 {
		t.Errorf("folds = %d, want 1", stats.Folds)
	}
	if stats.DegradedNodes != 1 {
		t.Errorf("degraded nodes at end = %d, want 1", stats.DegradedNodes)
	}
	if stats.SparesUsed != 0 {
		t.Errorf("spares used = %d, want 0", stats.SparesUsed)
	}
	if stats.HardErrors != 1 {
		t.Errorf("hard errors = %d, want 1", stats.HardErrors)
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}

// TestDegradedReExpand: a spare freed after a fold (FreeSpare) re-expands
// the folded node onto it before its tasks restart, so the job ends with
// no degraded nodes.
func TestDegradedReExpand(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.Spares = 0
	cfg.Degraded = true
	var ctrl *Controller
	var commits atomic.Int64
	var pacer *pacing.Pacer
	pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
		switch id {
		case point.CoreCommit:
			if commits.Add(1) == 2 {
				pacer.Stop() // recovery must find no task held by the pacer
				ctrl.KillNode(0, 1)
			}
		case point.CoreFold:
			// A repaired node rejoins right after the fold; the recovery
			// restart below it picks up the re-expanded mapping.
			ctrl.FreeSpare()
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
	if stats.Folds != 1 {
		t.Errorf("folds = %d, want 1", stats.Folds)
	}
	if stats.Expands != 1 {
		t.Errorf("expands = %d, want 1", stats.Expands)
	}
	if stats.DegradedNodes != 0 {
		t.Errorf("degraded nodes at end = %d, want 0", stats.DegradedNodes)
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}

// TestDegradedDisabledStaysFatal: without Degraded, spare exhaustion is
// still fatal and the typed cause survives the wrap.
func TestDegradedDisabledStaysFatal(t *testing.T) {
	cfg := baseConfig(2, 2, 200000)
	cfg.Spares = 0
	var ctrl *Controller
	var commits atomic.Int64
	cfg.Chaos = point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.CoreCommit && commits.Add(1) == 1 {
			ctrl.KillNode(0, 0)
		}
	})
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ctrl.Run()
	if !errors.Is(err, ErrUnrecoverable) || !errors.Is(err, runtime.ErrSpareExhausted) {
		t.Fatalf("want ErrUnrecoverable wrapping ErrSpareExhausted, got %v", err)
	}
}

// lossySeed finds a link seed whose very first frame is lost, so a run
// using it is guaranteed at least one retransmission regardless of how
// many frames the run sends.
func lossySeed(t *testing.T, p netsim.LinkParams) int64 {
	t.Helper()
	for seed := int64(0); seed < 1000; seed++ {
		p.Seed = seed
		if out := netsim.NewLink(p).Send(0); len(out) == 0 {
			return seed
		}
	}
	t.Fatal("no seed loses the first frame")
	return 0
}

// TestExchangeLossyLink: with checkpoint exchange and compare results
// routed through a 10%-loss, 5%-duplication link, every round still
// completes — the per-chunk ack/retry protocol absorbs the faults — and
// the recovery transfer after a crash delivers byte-identical state.
func TestExchangeLossyLink(t *testing.T) {
	cfg := baseConfig(2, 2, 8000)
	cfg.Scheme = Medium
	exch := ExchangeConfig{Loss: 0.10, Dup: 0.05}
	exch.Seed = lossySeed(t, netsim.LinkParams{Loss: exch.Loss, Dup: exch.Dup})
	cfg.Exchange = &exch
	var ctrl *Controller
	var commits atomic.Int64
	// Rounds are paced in iterations, so the job cannot finish before its
	// second commit.
	var pacer *pacing.Pacer
	pacer = pace(&cfg, &ctrl, 500, point.HookFunc(func(id point.ID, info *point.Info) {
		if id == point.CoreCommit && commits.Add(1) == 2 {
			pacer.Stop()        // recovery must find no task held by the pacer
			ctrl.KillNode(0, 1) // medium recovery ships checkpoints over the link
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
	if stats.HardErrors != 1 {
		t.Errorf("hard errors = %d, want 1", stats.HardErrors)
	}
	if stats.ExchangeFrames == 0 {
		t.Error("no frames crossed the link")
	}
	if stats.ExchangeRetries == 0 {
		t.Error("lossy link produced no retries")
	}
	if stats.Link.Lost == 0 {
		t.Errorf("link lost no frames: %+v", stats.Link)
	}
	if stats.Link.Sent == 0 || stats.Link.Delivered == 0 {
		t.Errorf("link stats empty: %+v", stats.Link)
	}
	verifyFinalState(t, ctrl, 2, 2, 8000)
}

// TestExchangeCleanLinkTransparent: a fault-free exchange changes no
// results and needs no retries.
func TestExchangeCleanLinkTransparent(t *testing.T) {
	cfg := baseConfig(2, 2, 4000)
	cfg.Exchange = &ExchangeConfig{}
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ExchangeRetries != 0 {
		t.Errorf("clean link retried %d times", stats.ExchangeRetries)
	}
	if stats.ExchangeFrames == 0 {
		t.Error("exchange enabled but no frames sent")
	}
	verifyFinalState(t, ctrl, 2, 2, 4000)
}

// TestFlushRetention: a tier keeps only its retain bound of epochs — in its
// store and in its complete-epoch index alike — however many it flushed.
func TestFlushRetention(t *testing.T) {
	for _, tc := range []struct {
		name    string
		attach  func(*Config, ckptstore.Store)
		tier    func(*Controller) *tier
		flushed func(Progress) int64
	}{
		{"flush", func(c *Config, st ckptstore.Store) { c.FlushEvery, c.FlushRetain, c.FlushStore = 1, 2, st },
			func(c *Controller) *tier { return &c.flush }, func(p Progress) int64 { return p.FlushedEpochs }},
		{"remote", func(c *Config, st ckptstore.Store) { c.RemoteFlushEvery, c.RemoteRetain, c.RemoteStore = 1, 2, st },
			func(c *Controller) *tier { return &c.remote }, func(p Progress) int64 { return p.RemoteFlushedEpochs }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Sized in flushes, not iterations: the job is far longer than
			// the test and is stopped once the tier has taken its third
			// epoch, whenever that is. No chaos hook, so the tier's writer
			// overlaps the following rounds as it does in production.
			cfg := baseConfig(2, 2, 1<<40)
			st := ckptstore.NewMem()
			tc.attach(&cfg, st)
			ctrl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				defer ctrl.Machine().Stop()
				deadline := time.After(30 * time.Second) // bounds a failure only
				for tc.flushed(ctrl.Progress()) < 3 {
					select {
					case <-deadline:
						t.Errorf("flushed epochs = %d, want >= 3", tc.flushed(ctrl.Progress()))
						return
					default:
						goruntime.Gosched()
					}
				}
			}()
			if _, err := ctrl.Run(); !errors.Is(err, runtime.ErrStopped) {
				t.Fatalf("err = %v, want the test's own stop", err)
			}
			if inv := ckptstore.EpochInventory(st); len(inv) > 2 {
				t.Errorf("store retains %d epochs %v, want <= 2", len(inv), inv)
			}
			if idx := tc.tier(ctrl).index(); len(idx) > 2 {
				t.Errorf("index lists %d epochs %v, want <= 2", len(idx), idx)
			}
		})
	}
}
