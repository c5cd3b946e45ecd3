// Package stages is the checkpoint path's stage runner: it pushes a dense
// range of items through one worker-pool stage, as wide as its caller
// asks, and records each item's failure. The durable tiers' borrow and the
// durable restore's fetch in internal/core and runtime.Machine.CaptureReplica
// run on it; the checkpoint round body in internal/core, whose compare waits
// on two replicas' captures rather than one predecessor stage, schedules its
// own items across its three stages and shares Clock, Outcome and
// FirstFailure.
//
// The result never depends on the width: nothing is cancelled early, every
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
// two Resets.
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

// Run runs run(i) for the items 0..len(out)-1 on width workers and records
// each item's failure in out, as stage 0. At width 1 it runs inline on the
// calling goroutine in item order, starting no goroutine and making no
// channel. Otherwise width workers drain a channel pre-filled in item
// order. Nothing is cancelled early — FirstFailure resolves out lowest
// index first, which is what makes the result independent of the width.
func Run(out []Outcome, width int, run func(i int) error) {
	clear(out)
	step := func(i int) {
		if err := run(i); err != nil {
			out[i] = Outcome{Err: err}
		}
	}
	if width <= 1 {
		for i := range out {
			step(i)
		}
		return
	}
	// The channel holds every item, so filling it never blocks.
	in := make(chan int, len(out))
	for i := range out {
		in <- i
	}
	close(in)
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for i := range in {
				step(i)
			}
		}()
	}
	wg.Wait()
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
