// Package stages is the checkpoint path's stage runner: it pushes a dense
// range of items through a sequence of worker-pool stages, each as wide as
// its caller asks, and records per item the first stage that failed. The
// durable-tier clone in internal/core and runtime.Machine.CaptureReplica
// run on it; the checkpoint round body in internal/core, whose compare
// waits on two replicas' captures rather than one predecessor stage,
// schedules its own items and shares Clock, Outcome and FirstFailure.
//
// The result never depends on the widths: nothing is cancelled early, every
// item's outcome lands in a dense slice, and FirstFailure resolves that
// slice the way a serial walk would have met it — the earliest stage that
// failed anywhere outranks later stages, and within a stage the lowest item
// wins.
package stages

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Clock accumulates one stage's busy time and wall span from concurrent
// workers. first/last hold nanosecond offsets from the run's base,
// CAS-min/maxed per observation, so the zero Clock is not ready: Reset it
// before each run it times.
type Clock struct {
	busy  atomic.Int64
	first atomic.Int64
	last  atomic.Int64
}

// Reset clears the clock for a new run.
func (c *Clock) Reset() {
	c.busy.Store(0)
	c.first.Store(math.MaxInt64)
	c.last.Store(math.MinInt64)
}

// Observe folds one item's stage occupancy [start, now) into the clock. base
// is the run's reference instant: the same for every observation between
// two Resets (Run uses its own start; a caller scheduling items itself
// passes its own).
func (c *Clock) Observe(base, start time.Time) {
	end := time.Now()
	c.busy.Add(int64(end.Sub(start)))
	so, eo := start.Sub(base).Nanoseconds(), end.Sub(base).Nanoseconds()
	for {
		cur := c.first.Load()
		if so >= cur || c.first.CompareAndSwap(cur, so) {
			break
		}
	}
	for {
		cur := c.last.Load()
		if eo <= cur || c.last.CompareAndSwap(cur, eo) {
			break
		}
	}
}

// Busy is the summed per-item occupancy of the stage.
func (c *Clock) Busy() time.Duration { return time.Duration(c.busy.Load()) }

// Wall is the stage's first-entry→last-exit span (0 when nothing ran).
func (c *Clock) Wall() time.Duration {
	f, l := c.first.Load(), c.last.Load()
	if f == math.MaxInt64 || l < f {
		return 0
	}
	return time.Duration(l - f)
}

// Outcome records one item's first failure: the index of the stage that
// failed and its error (nil = the item passed every stage). An item that
// fails a stage never enters the next one.
type Outcome struct {
	Stage int
	Err   error
}

// Stage is one step of a run. Run(i) processes item i; a non-nil error
// stops the item.
type Stage struct {
	Width int
	Clock *Clock // nil = untimed
	Run   func(i int) error
}

// Run pushes items 0..len(out)-1 through the stages and records each item's
// first failure in out. With every stage at width 1 it runs inline on the
// calling goroutine, stage by stage in item order, starting no goroutine
// and making no channel. Otherwise each stage is a pool of Width workers
// fed by a channel: the first stage's channel is pre-filled in item order,
// every later one carries the items that survived the stage before it.
// Nothing is cancelled early — FirstFailure resolves out in
// stage-then-index order, which is what makes the result independent of
// the widths.
func Run(out []Outcome, stages ...Stage) {
	total := len(out)
	clear(out)
	base := time.Now()
	step := func(si int, i int) bool {
		s := &stages[si]
		began := time.Now()
		err := s.Run(i)
		if s.Clock != nil {
			s.Clock.Observe(base, began)
		}
		if err != nil {
			out[i] = Outcome{Stage: si, Err: err}
		}
		return err == nil
	}
	inline := true
	for _, s := range stages {
		inline = inline && s.Width <= 1
	}
	if inline {
		for si := range stages {
			for i := 0; i < total; i++ {
				if out[i].Err == nil {
					step(si, i)
				}
			}
		}
		return
	}
	// Every channel is sized to the number of sends it can ever see, so no
	// stage blocks on its successor and workers need no select.
	in := make(chan int, total)
	for i := 0; i < total; i++ {
		in <- i
	}
	close(in)
	var last sync.WaitGroup
	for si := range stages {
		s, src := &stages[si], in
		var dst chan int
		wg := &last
		if si < len(stages)-1 {
			dst = make(chan int, total)
			wg = new(sync.WaitGroup)
		}
		wg.Add(s.Width)
		for w := 0; w < s.Width; w++ {
			go func() {
				defer wg.Done()
				for i := range src {
					if step(si, i) && dst != nil {
						dst <- i
					}
				}
			}()
		}
		if dst != nil {
			go func() {
				wg.Wait()
				close(dst)
			}()
		}
		in = dst
	}
	last.Wait()
}

// FirstFailure returns the error a serial walk would have met first: the
// earliest stage that failed anywhere outranks later stages (a capture
// error aborts a round before any exchange error could matter), and within
// a stage the lowest item wins. nil when every item passed.
func FirstFailure(out []Outcome) error {
	var best *Outcome
	for i := range out {
		if o := &out[i]; o.Err != nil && (best == nil || o.Stage < best.Stage) {
			best = o
		}
	}
	if best == nil {
		return nil
	}
	return best.Err
}
