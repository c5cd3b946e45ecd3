package core

import (
	"errors"
	"testing"
	"time"

	"acr/internal/ckptstore"
)

// TestWarmResumeFromDurable: a first job flushes epochs to a persistent
// disk tier; a second process (a fresh controller over the same directory)
// warm-starts from the newest durable epoch and finishes with the
// bit-identical final state. The newest epoch is then corrupted at rest to
// prove the resume walk skips it and lands on an older candidate.
func TestWarmResumeFromDurable(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 8000
	dir := t.TempDir()
	d1, err := ckptstore.NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(nodes, tasks, iters)
	cfg.FlushEvery = 1
	cfg.FlushRetain = 4
	cfg.FlushStore = d1
	// Paced, so the first life flushes several epochs however fast it runs.
	var ctrl *Controller
	pace(&cfg, &ctrl, 1000, nil)
	ctrl, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Run(); err != nil {
		t.Fatal(err)
	}
	want := nodes * tasks // one copy per compared pair

	// A fresh process reopens the directory and rebuilds the inventory
	// from the files themselves.
	d2, err := ckptstore.NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	epochs := ckptstore.CompleteEpochs(d2, 1, want)
	if len(epochs) < 2 {
		t.Fatalf("durable epochs after run = %v, want >= 2", epochs)
	}
	for epoch, n := range ckptstore.EpochInventory(d2) {
		if n != want {
			t.Fatalf("durable epoch %d holds %d checkpoints, want %d (N·T)", epoch, n, want)
		}
	}

	// The resumed job reads its candidates from — and keeps flushing to —
	// the same durable tier.
	resume := baseConfig(nodes, tasks, iters)
	resume.ResumeEpochs = epochs
	resume.FlushEvery, resume.FlushRetain, resume.FlushStore = 1, 4, d2
	ctrl2, err := New(resume)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedEpoch != epochs[len(epochs)-1] {
		t.Errorf("resumed epoch = %d, want newest durable %d", stats.ResumedEpoch, epochs[len(epochs)-1])
	}
	if stats.TierRecoveries[1] != 1 {
		t.Errorf("tier recoveries = %v, want one tier-1 resume", stats.TierRecoveries)
	}
	verifyFinalState(t, ctrl2, nodes, tasks, iters)

	// Corrupt the newest durable epoch at rest: the resume walk must skip
	// it (detection via the payload root) and land on the next candidate.
	// The second life flushed (and evicted) too, so take the census again.
	epochs = ckptstore.CompleteEpochs(d2, 1, want)
	if len(epochs) < 2 {
		t.Fatalf("durable epochs after resumed run = %v, want >= 2", epochs)
	}
	newest := epochs[len(epochs)-1]
	if err := d2.CorruptAtRest(ckptstore.Key{Replica: 0, Node: 0, Task: 0, Epoch: newest}, 16, 2); err != nil {
		t.Fatal(err)
	}
	resume2 := baseConfig(nodes, tasks, iters)
	resume2.ResumeEpochs = epochs
	resume2.FlushEvery, resume2.FlushRetain, resume2.FlushStore = 1, 4, d2
	ctrl3, err := New(resume2)
	if err != nil {
		t.Fatal(err)
	}
	stats3, err := ctrl3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats3.ResumedEpoch != epochs[len(epochs)-2] {
		t.Errorf("resumed epoch with corrupt newest = %d, want %d", stats3.ResumedEpoch, epochs[len(epochs)-2])
	}
	if stats3.TierRecoveries[2] != 1 || stats3.MaxRollbackDepth != 1 {
		t.Errorf("tier recoveries = %v, max depth = %d; want one tier-2 resume at depth 1",
			stats3.TierRecoveries, stats3.MaxRollbackDepth)
	}
	verifyFinalState(t, ctrl3, nodes, tasks, iters)
}

// TestResumeAllUnusableColdStarts: when every resume candidate is garbage
// the job must fall back to a cold start and still complete correctly.
func TestResumeAllUnusableColdStarts(t *testing.T) {
	const nodes, tasks, iters = 1, 2, 4000
	cfg := baseConfig(nodes, tasks, iters)
	cfg.ResumeEpochs = []uint64{41, 42}
	cfg.FlushEvery, cfg.FlushStore = 1, ckptstore.NewMem() // empty: every Get fails
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResumedEpoch != 0 {
		t.Errorf("resumed epoch = %d, want 0 (cold start)", stats.ResumedEpoch)
	}
	verifyFinalState(t, ctrl, nodes, tasks, iters)
}

// TestOnDemandFlushAndRestore drives the acrd control-plane surface
// against a live job: force a durable flush of the committed epoch, rewind
// the job to it, reject a restore of a non-existent epoch, and observe it
// all through the live Progress snapshot — then let the job finish and
// check the result is still bit-identical.
func TestOnDemandFlushAndRestore(t *testing.T) {
	const nodes, tasks, iters = 2, 2, 60000
	cfg := baseConfig(nodes, tasks, iters)
	cfg.FlushEvery = 1 << 30 // durable tier present, periodic cadence never fires
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	var stats Stats
	go func() {
		var rerr error
		stats, rerr = ctrl.Run()
		runDone <- rerr
	}()

	deadline := time.Now().Add(10 * time.Second)
	for ctrl.Progress().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint committed within 10s")
		}
		time.Sleep(time.Millisecond)
	}

	epoch, err := ctrl.FlushCommitted(10 * time.Second)
	if err != nil {
		t.Fatalf("FlushCommitted: %v", err)
	}
	if epoch == 0 {
		t.Fatal("FlushCommitted returned epoch 0")
	}
	if got := ctrl.DurableEpochs(); len(got) != 1 || got[0] != epoch {
		t.Fatalf("durable epochs = %v, want [%d]", got, epoch)
	}
	// Idempotent: a second forced flush of the same epoch is a no-op. (A
	// periodic round may commit between the two calls; the second flush
	// then follows the newer epoch, which is not what is under test.)
	again, err := ctrl.FlushCommitted(10 * time.Second)
	if err != nil || again < epoch {
		t.Fatalf("second FlushCommitted = (%d, %v), want (%d, nil)", again, err, epoch)
	}
	if again == epoch {
		if got := ctrl.DurableEpochs(); len(got) != 1 || got[0] != epoch {
			t.Fatalf("durable epochs after the repeated flush = %v, want [%d]", got, epoch)
		}
	}

	if err := ctrl.RestoreEpoch(epoch+999, 10*time.Second); err == nil {
		t.Fatal("restore of non-existent epoch succeeded, want error")
	}
	if err := ctrl.RestoreEpoch(epoch, 10*time.Second); err != nil {
		t.Fatalf("RestoreEpoch(%d): %v", epoch, err)
	}
	p := ctrl.Progress()
	if p.Rollbacks < 2 {
		t.Errorf("progress rollbacks = %d, want >= 2 after on-demand restore", p.Rollbacks)
	}
	if p.FlushedEpochs < 1 {
		t.Errorf("progress flushed epochs = %d, want >= 1", p.FlushedEpochs)
	}

	if err := <-runDone; err != nil {
		t.Fatal(err)
	}
	if stats.FlushedEpochs < 1 {
		t.Errorf("stats flushed epochs = %d, want >= 1", stats.FlushedEpochs)
	}
	verifyFinalState(t, ctrl, nodes, tasks, iters)

	// The loop has exited: control-plane operations now time out with the
	// typed sentinel instead of hanging.
	if _, err := ctrl.FlushCommitted(50 * time.Millisecond); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("FlushCommitted after run = %v, want ErrNotRunning", err)
	}
}
