package core

import (
	"sync"

	"acr/internal/chaos/point"
)

// commitPacer sizes a test job in commits instead of milliseconds. With the
// interval timer off, the first task of each replica asks for a round
// (PredictFailure) each time it has completed another `every` iterations, and
// waits inside its progress report until the controller has opened that round
// (point.CorePreConsensus — the cut is chosen right after, one past the
// furthest task, so nobody waits on a task that is waiting here). A job
// therefore sees one round per `every` iterations however fast the tasks or
// slow the event loop, and "kill at the 5th commit" names an iteration, not a
// race against the end of the job.
//
// A task waiting in a hook cannot be interrupted, so a test that injects a
// hard error calls stop first: recovery must never find a task held here.
// Rounds that roll back (a detected SDC) are not asked for again; the rerun
// passes their hold points freely.
type commitPacer struct {
	ctrl  **Controller
	every int
	next  point.Hook // the test's own hook, fired first; may be nil

	mu      sync.Mutex
	changed *sync.Cond
	asked   int // rounds requested: the furthest hold point reached
	opened  int // rounds the controller has opened
	stopped bool
}

// pace turns cfg into a commit-paced job: no checkpoint timer, a round every
// `every` iterations. next, if non-nil, sees every firing before the pacer.
func pace(cfg *Config, ctrl **Controller, every int, next point.Hook) *commitPacer {
	p := &commitPacer{ctrl: ctrl, every: every, next: next}
	p.changed = sync.NewCond(&p.mu)
	cfg.CheckpointInterval = 0
	cfg.Chaos = p
	return p
}

// stop ends the pacing: held tasks resume and no further round is requested.
func (p *commitPacer) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.changed.Broadcast()
}

func (p *commitPacer) Fire(id point.ID, info *point.Info) {
	if p.next != nil {
		p.next.Fire(id, info)
	}
	switch id {
	case point.CorePreConsensus:
		p.mu.Lock()
		p.opened++
		p.mu.Unlock()
		p.changed.Broadcast()
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
			(*p.ctrl).PredictFailure()
		}
		for p.opened < k && !p.stopped {
			p.changed.Wait()
		}
	}
}
