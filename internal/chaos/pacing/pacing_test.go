package pacing

import (
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/point"
)

// progress fires the progress report of replica rep's first task having
// finished its done-th iteration, and reports on the channel when the pacer
// lets the task go.
func progress(p *Pacer, rep, done int) <-chan struct{} {
	out := make(chan struct{})
	go func() {
		p.Fire(point.RuntimeProgress, &point.Info{Replica: rep, Iter: done - 1})
		close(out)
	}()
	return out
}

func held(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
		t.Fatal("task was let go, want it held")
	case <-time.After(20 * time.Millisecond):
	}
}

func released(t *testing.T, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("task is still held")
	}
}

func TestPacerHoldsUntilTheRoundOpens(t *testing.T) {
	var asked atomic.Int32
	p := New(func() { asked.Add(1) }, 10, nil)
	// Off the hold points, and for any task but a replica's first, nothing.
	released(t, progress(p, 0, 7))
	p.Fire(point.RuntimeProgress, &point.Info{Replica: 0, Node: 1, Iter: 9})
	if asked.Load() != 0 {
		t.Fatal("a round was asked for off a hold point")
	}
	first := progress(p, 0, 10)
	held(t, first)
	second := progress(p, 1, 10) // the other replica reaches the same point: no second request
	held(t, second)
	if asked.Load() != 1 {
		t.Fatalf("%d rounds asked for, want 1", asked.Load())
	}
	p.Fire(point.CorePreConsensus, &point.Info{})
	released(t, first)
	released(t, second)
	p.Fire(point.CoreCommit, &point.Info{})
	// A round the timer opened ahead of the job is not asked for again.
	p.Fire(point.CorePreConsensus, &point.Info{})
	p.Fire(point.CoreCommit, &point.Info{})
	released(t, progress(p, 0, 20))
	if asked.Load() != 1 {
		t.Fatalf("%d rounds asked for, want 1", asked.Load())
	}
}

func TestPacerStopReleases(t *testing.T) {
	p := New(func() {}, 10, nil)
	ch := progress(p, 0, 10)
	held(t, ch)
	p.Stop()
	released(t, ch)
	released(t, progress(p, 0, 20))
}

// TestPacerNeverHoldsAnUnsettledReplica: between a round's release and the
// rollback that follows a detected SDC, a task that reaches its next hold
// point asks for the round and runs on — the rollback must be able to stop
// it. Its restarted replica may be held again.
func TestPacerNeverHoldsAnUnsettledReplica(t *testing.T) {
	var asked atomic.Int32
	p := New(func() { asked.Add(1) }, 10, nil)
	ch := progress(p, 0, 10)
	held(t, ch)
	p.Fire(point.CorePreConsensus, &point.Info{}) // round 1 opens and detects: no commit
	released(t, ch)
	released(t, progress(p, 1, 20)) // replica 1 was let go and reached hold 2
	if asked.Load() != 2 {
		t.Fatalf("%d rounds asked for, want 2", asked.Load())
	}
	p.Fire(point.CoreRestart, &point.Info{Replica: 0})
	released(t, progress(p, 1, 30)) // replica 1 is still to be stopped
	again := progress(p, 0, 30)     // replica 0 runs a fresh incarnation
	held(t, again)
	p.Fire(point.CorePreConsensus, &point.Info{})
	p.Fire(point.CorePreConsensus, &point.Info{})
	released(t, again)
}
