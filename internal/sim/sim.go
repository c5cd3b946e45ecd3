// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in seconds (float64) and
// dispatches events in nondecreasing time order. Ties are broken by the
// order of scheduling (FIFO among equal timestamps) so that simulations are
// fully deterministic and reproducible. All large-scale ACR experiments
// (Figures 8-12) run on this clock rather than wall time.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Event is a scheduled callback. The callback receives the engine so it can
// schedule follow-up events.
type Event struct {
	Time   float64
	Action func(*Engine)

	seq   uint64 // scheduling order, breaks timestamp ties
	index int    // heap index; -1 once popped or cancelled
}

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now     float64
	queue   eventQueue
	nextSeq uint64
	// Horizon, if positive, stops the run once the clock would pass it.
	Horizon float64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules action to run at absolute time t. Scheduling in the past
// panics: that is always a logic error in the caller.
func (e *Engine) At(t float64, action func(*Engine)) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN")
	}
	ev := &Event{Time: t, Action: action, seq: e.nextSeq}
	e.nextSeq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules action to run d seconds from now.
func (e *Engine) After(d float64, action func(*Engine)) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, action)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	if e.Horizon > 0 && ev.Time > e.Horizon {
		// Past the horizon: drop the event and report exhaustion. The
		// clock parks exactly at the horizon.
		e.now = e.Horizon
		return false
	}
	e.now = ev.Time
	ev.Action(e)
	return true
}

// Run dispatches events until the queue drains or the horizon is reached.
// It returns the final clock value.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}
