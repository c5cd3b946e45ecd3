// Package pacing sizes a job in checkpoint rounds instead of milliseconds: a
// chaos hook that makes a round happen every so many application
// iterations, however fast the tasks or slow the controller's event loop.
// Tests and the live figures use it so that "kill at the first commit" or
// "the first compared round" names an iteration, not a race against the end
// of the job.
package pacing

import (
	"sync"

	"acr/internal/chaos/point"
)

// Pacer is the hook. The first task of each replica asks for a round
// (predict, the controller's PredictFailure) each time it has completed
// another `every` iterations, and waits inside its progress report until
// the controller has opened that many rounds (point.CorePreConsensus — the
// cut is chosen right after, one past the furthest task, so nobody waits on
// a task that is waiting here). Rounds the interval timer opens count too:
// with the timer on, the pacer only fills in the rounds it was late for.
//
// A task waiting in a hook cannot be interrupted, so nothing that stops a
// replica may find one held here. Two rules see to that. A user that
// injects a hard error calls Stop first. And a task is held only while its
// replica has settled the last opened round — seen it commit, or been
// restarted after it (point.CoreCommit, point.CoreRestart): a round that
// detects an SDC releases its cut before it rolls the replicas back one
// after the other, and a task let go in that window runs on to its next
// hold point, where it asks for the round but does not wait for it — the
// rollback is about to stop it. Rounds that roll back are not asked for
// again; the rerun passes their hold points freely.
type Pacer struct {
	predict func()
	every   int
	next    point.Hook // the user's own hook, fired first; may be nil

	mu      sync.Mutex
	changed *sync.Cond
	asked   int    // rounds requested: the furthest hold point reached
	opened  int    // rounds the controller has opened
	settled [2]int // per replica: opened, as of the last round it saw through
	stopped bool
}

// New returns a pacer asking for a round every `every` iterations through
// predict. next, if non-nil, sees every firing before the pacer does.
func New(predict func(), every int, next point.Hook) *Pacer {
	p := &Pacer{predict: predict, every: every, next: next}
	p.changed = sync.NewCond(&p.mu)
	return p
}

// Stop ends the pacing: held tasks resume and no further round is requested.
func (p *Pacer) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.changed.Broadcast()
}

// Fire implements point.Hook.
func (p *Pacer) Fire(id point.ID, info *point.Info) {
	if p.next != nil {
		p.next.Fire(id, info)
	}
	switch id {
	case point.CorePreConsensus:
		p.mu.Lock()
		p.opened++
		p.mu.Unlock()
		p.changed.Broadcast()
	case point.CoreCommit:
		p.mu.Lock()
		p.settled = [2]int{p.opened, p.opened}
		p.mu.Unlock()
	case point.CoreRestart:
		p.mu.Lock()
		p.settled[info.Replica] = p.opened
		p.mu.Unlock()
	case point.RuntimeProgress:
		done := info.Iter + 1 // Progress reports the iteration just finished
		if info.Node != 0 || info.Task != 0 || done%p.every != 0 {
			return
		}
		k := done / p.every
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.stopped {
			return
		}
		if k > p.asked {
			p.asked = k
			if p.opened < k {
				p.predict()
			}
		}
		for p.opened < k && !p.stopped && p.settled[info.Replica] == p.opened {
			p.changed.Wait()
		}
	}
}
