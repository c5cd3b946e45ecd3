package netsim

import (
	"math/rand"
	"sync"
)

// This file adds a live link-fault model to netsim: where the analytic
// model (netsim.go) and the packet DES (des_test.go) predict transfer *cost*,
// Link perturbs transfer *delivery* — frames are lost, duplicated, or
// reordered with configured probabilities, deterministically per seed.
// The hardened checkpoint-exchange protocol in internal/core drives its
// buddy transfers and compare-result messages through a Link, so a lossy
// interconnect degrades checkpoint latency (retries, backoff) instead of
// wedging or corrupting a round.

// LinkParams configures a lossy link. Each frame suffers at most one
// fault, drawn from a single uniform roll: loss with probability Loss,
// duplication with probability Dup, reordering (held back and released
// behind a later delivery) with probability Reorder. The probabilities
// must be non-negative and sum to at most 1; the remainder is clean
// delivery.
type LinkParams struct {
	Loss    float64
	Dup     float64
	Reorder float64
	// Seed drives the fault draws; the fault pattern is a pure function
	// of the seed and the frame sequence.
	Seed int64
}

// LinkStats counts a link's frame-level activity.
type LinkStats struct {
	Sent       int64 `json:"sent"`      // frames offered to the link
	Delivered  int64 `json:"delivered"` // frames that came out the far end (includes duplicates)
	Lost       int64 `json:"lost"`
	Duplicated int64 `json:"duplicated"`
	Reordered  int64 `json:"reordered"`
}

// Link is a deterministic lossy/duplicating/reordering link. Transfer is
// synchronous: Send passes one frame in and returns whatever comes out
// the far end now — possibly nothing (lost or held for reordering), the
// frame twice (duplicated), or the frame plus previously held frames it
// overtook. Safe for concurrent use; concurrent senders serialize on an
// internal mutex (the fault pattern then depends on arrival order, which
// single-goroutine protocol drivers keep deterministic).
type Link struct {
	mu    sync.Mutex
	p     LinkParams
	rng   *rand.Rand
	held  []any
	stats LinkStats
}

// NewLink builds a link; negative probabilities are clamped to zero.
func NewLink(p LinkParams) *Link {
	if p.Loss < 0 {
		p.Loss = 0
	}
	if p.Dup < 0 {
		p.Dup = 0
	}
	if p.Reorder < 0 {
		p.Reorder = 0
	}
	return &Link{p: p, rng: rand.New(rand.NewSource(p.Seed))}
}

// Send offers one frame to the link and returns the frames delivered at
// the far end, in delivery order.
func (l *Link) Send(frame any) []any {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Sent++
	var out []any
	roll := l.rng.Float64()
	switch {
	case roll < l.p.Loss:
		l.stats.Lost++
	case roll < l.p.Loss+l.p.Dup:
		l.stats.Duplicated++
		out = append(out, frame, frame)
	case roll < l.p.Loss+l.p.Dup+l.p.Reorder:
		l.stats.Reordered++
		l.held = append(l.held, frame)
	default:
		out = append(out, frame)
	}
	// A delivery releases every held frame behind it: the overtaking
	// frame arrives first, then the stragglers.
	if len(out) > 0 && len(l.held) > 0 {
		out = append(out, l.held...)
		l.held = nil
	}
	l.stats.Delivered += int64(len(out))
	return out
}

// Flush releases every held frame. A whole transfer window can be held at
// once, so the owner drains the link before reading Stats at the end of a
// run; otherwise stranded frames would be missing from Delivered.
func (l *Link) Flush() []any {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.held
	l.held = nil
	l.stats.Delivered += int64(len(out))
	return out
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
