// Package trace records timestamped runtime events and renders them as the
// ASCII counterpart of the paper's timeline figures: Figure 12's adaptivity
// profile (work interrupted by checkpoint and failure lines) and Figure 5's
// per-scheme control flow.
package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Kind classifies an event.
type Kind int

// Event kinds, in increasing display precedence: when several events share
// one timeline column, the highest-precedence glyph wins.
const (
	Work Kind = iota
	Progress
	Checkpoint
	Restart
	Failure
	// Store carries checkpoint-storage telemetry (bytes written, chunks
	// reused by the delta tier, compare time, localized chunk index) from
	// the ckptstore subsystem. Store events annotate the timeline but do
	// not draw on it.
	Store
	// Inject marks a chaos-engine fault injection (internal/chaos): the
	// detail names the injection point, fault kind, and target.
	Inject
	// Oracle marks an invariant-oracle verdict (internal/chaos): a checked
	// invariant passing or firing at the end of a chaos run.
	Oracle
	// Fold marks degraded-mode events: a failed node folded onto a
	// survivor after spare exhaustion, or folded nodes re-expanded onto a
	// freed spare (internal/core's shrink/expand path).
	Fold
	// Net carries hardened-exchange telemetry: per-transfer chunk and
	// retransmission counts from the lossy-link checkpoint exchange.
	// Like Store, Net events annotate the timeline without drawing on it.
	Net
	// Fleet carries multi-job scheduler events (internal/fleet): job
	// admission, spare grants and preemptions, bandwidth-arbiter waits.
	// Like Store and Net, Fleet events annotate without drawing.
	Fleet
	// Pipeline carries per-round overlap accounting from the pipelined
	// commit path (internal/core): busy-vs-wall time per capture /
	// exchange / compare stage. Annotates without drawing.
	Pipeline
	// Remote carries remote checkpoint tier telemetry (internal/ckptstore's
	// Remote/Resilient pair and the core tier-3 flush path): remote flush
	// completions and failures, breaker trips and re-closes, failovers to
	// the local fallback. Annotates without drawing.
	Remote
)

// Glyph returns the timeline character for the kind.
func (k Kind) Glyph() byte {
	switch k {
	case Checkpoint:
		return '|'
	case Failure:
		return 'X'
	case Restart:
		return 'R'
	case Progress:
		return '.'
	case Inject:
		return '!'
	case Oracle:
		return '?'
	case Fold:
		return 'F'
	default:
		return ' '
	}
}

func (k Kind) String() string {
	switch k {
	case Work:
		return "work"
	case Progress:
		return "progress"
	case Checkpoint:
		return "checkpoint"
	case Restart:
		return "restart"
	case Failure:
		return "failure"
	case Store:
		return "store"
	case Inject:
		return "inject"
	case Oracle:
		return "oracle"
	case Fold:
		return "fold"
	case Net:
		return "net"
	case Fleet:
		return "fleet"
	case Pipeline:
		return "pipeline"
	case Remote:
		return "remote"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timestamped occurrence.
type Event struct {
	Time   float64 // seconds
	Kind   Kind
	Detail string
}

// Timeline accumulates events; it is safe for concurrent use.
type Timeline struct {
	mu     sync.Mutex
	events []Event
}

// Add records an event.
func (tl *Timeline) Add(t float64, k Kind, detail string) {
	tl.mu.Lock()
	tl.events = append(tl.events, Event{Time: t, Kind: k, Detail: detail})
	tl.mu.Unlock()
}

// Events returns a time-sorted copy of the recorded events.
func (tl *Timeline) Events() []Event {
	tl.mu.Lock()
	out := make([]Event, len(tl.events))
	copy(out, tl.events)
	tl.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// OfKind returns the time-sorted events of one kind.
func (tl *Timeline) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range tl.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Render draws the timeline as a single row of width columns covering
// [0, horizon] seconds, in the style of Figure 12: '=' is application work,
// '|' a checkpoint, 'X' an injected failure, 'R' a restart.
func (tl *Timeline) Render(horizon float64, width int) string {
	if width <= 0 || horizon <= 0 {
		return ""
	}
	row := make([]byte, width)
	for i := range row {
		row[i] = '='
	}
	prec := func(b byte) int {
		switch b {
		case 'X':
			return 4
		case 'R':
			return 3
		case '|':
			return 2
		case '=':
			return 0
		}
		return 1
	}
	for _, e := range tl.Events() {
		if e.Kind == Work || e.Kind == Progress || e.Kind == Store || e.Kind == Net || e.Kind == Fleet || e.Kind == Pipeline || e.Kind == Remote {
			continue
		}
		col := int(e.Time / horizon * float64(width))
		if col < 0 {
			col = 0
		}
		if col >= width {
			col = width - 1
		}
		g := e.Kind.Glyph()
		if prec(g) > prec(row[col]) {
			row[col] = g
		}
	}
	return string(row)
}
