package core

import (
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/runtime"
)

// TestWeakDoubleFailure: under the weak scheme, a failure in the healthy
// replica while the first crashed replica still awaits recovery forces a
// rollback of both replicas to the previous checkpoint (§2.3's weak-scheme
// hazard). The run must still finish correctly.
func TestWeakDoubleFailure(t *testing.T) {
	cfg := baseConfig(2, 2, 12000)
	cfg.Scheme = Weak
	cfg.Spares = 2
	// Stretch the period so the second failure lands before the next
	// periodic checkpoint performs the weak recovery.
	cfg.CheckpointInterval = 60 * time.Millisecond
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(15 * time.Millisecond)
		ctrl.KillNode(0, 0) // first crash: replica 0 pends weak recovery
		time.Sleep(20 * time.Millisecond)
		ctrl.KillNode(1, 1) // healthy replica crashes before recovery
	}()
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors != 2 {
		t.Fatalf("hard errors = %d, want 2", stats.HardErrors)
	}
	if stats.Rollbacks < 2 {
		t.Fatalf("double failure must roll back both replicas, rollbacks = %d", stats.Rollbacks)
	}
	verifyFinalState(t, ctrl, 2, 2, 12000)
}

// TestSecondFailureOnCrashedReplica: another node of an already-crashed
// replica dies before the weak recovery runs; the single pending recovery
// must restore everything.
func TestSecondFailureOnCrashedReplica(t *testing.T) {
	cfg := baseConfig(2, 2, 12000)
	cfg.Scheme = Weak
	cfg.Spares = 2
	cfg.CheckpointInterval = 40 * time.Millisecond
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(12 * time.Millisecond)
		ctrl.KillNode(0, 0)
		time.Sleep(10 * time.Millisecond)
		ctrl.KillNode(0, 1) // same replica, different node
	}()
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors != 2 {
		t.Fatalf("hard errors = %d, want 2", stats.HardErrors)
	}
	if stats.SparesUsed != 2 {
		t.Fatalf("spares used = %d, want 2", stats.SparesUsed)
	}
	verifyFinalState(t, ctrl, 2, 2, 12000)
}

// TestFailureDuringCheckpointRound: a kill racing the consensus cut must
// abort the round (AbortedRounds) and still recover.
func TestFailureDuringCheckpointRound(t *testing.T) {
	cfg := baseConfig(2, 2, 30000)
	cfg.Scheme = Strong
	cfg.CheckpointInterval = 2 * time.Millisecond // rounds nearly always active
	cfg.Spares = 3
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i := 0; i < 3; i++ {
			time.Sleep(8 * time.Millisecond)
			ctrl.KillNode(i%2, i%2)
		}
	}()
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.HardErrors == 0 {
		t.Fatal("no failures landed")
	}
	verifyFinalState(t, ctrl, 2, 2, 30000)
}

// TestSDCOnBothReplicas: corrupting BOTH replicas' buddies still yields a
// detectable mismatch only if the corruptions differ; identical state with
// two different flips mismatches with near certainty. Either way the run
// must end with the correct answer.
func TestSDCOnBothReplicas(t *testing.T) {
	cfg := baseConfig(2, 2, 6000)
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 0, Node: 0, Task: 0})
	ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: 1, Node: 0, Task: 0})
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SDCDetected == 0 {
		t.Fatal("differing corruptions on the buddy pair must mismatch")
	}
	verifyFinalState(t, ctrl, 2, 2, 6000)
}

// TestManySDCInjections: repeated corruption across different rounds keeps
// being caught and rolled back.
func TestManySDCInjections(t *testing.T) {
	// Sized in commits: twelve paced rounds. Each of the first four commits
	// queues an injection, the round after each detects it and rolls back,
	// and the round after that commits again.
	const iters = 12000
	cfg := baseConfig(2, 1, iters)
	var ctrl *Controller
	var commits atomic.Int64
	pace(&cfg, &ctrl, 1000, point.HookFunc(func(id point.ID, _ *point.Info) {
		if id != point.CoreCommit {
			return
		}
		if i := int(commits.Add(1)) - 1; i < 4 {
			ctrl.InjectSDCAtNextCheckpoint(runtime.Addr{Replica: i % 2, Node: i % 2, Task: 0})
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
	if stats.SDCDetected != 4 {
		t.Fatalf("SDC detected = %d, want 4", stats.SDCDetected)
	}
	verifyFinalState(t, ctrl, 2, 1, iters)
}
