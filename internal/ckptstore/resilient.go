package ckptstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Resilient hardens an unreliable Store (typically a Remote) for use as a
// checkpoint tier:
//
//   - transient failures (IsTransientRemote) are retried with
//     capped-exponential backoff and seeded jitter;
//   - each operation carries an optional deadline budget covering all its
//     attempts, expiring as the typed ErrDeadlineExceeded;
//   - Put is idempotent: re-Putting a checkpoint whose root already landed
//     under the key is skipped (torn uploads do not count — only a
//     confirmed success records the root, so a retry after a torn write
//     correctly overwrites the partial object);
//   - a circuit breaker trips after BreakerThreshold consecutive failed
//     operations. While open, Put traffic fails over to the configured
//     local Fallback store (graceful degradation — the flush cadence keeps
//     landing epochs somewhere durable) and Get is served from the
//     fallback. A background probe half-opens the breaker every
//     ProbeInterval; the first healthy probe re-closes it.
//
// Resilient is safe for concurrent use. Close stops the background prober.
type Resilient struct {
	Layer // Inner and Counters come from here; everything else is policy
	opts  ResilientOptions

	mu     sync.Mutex
	rng    *rand.Rand // backoff jitter
	state  BreakerState
	consec int // consecutive failed ops while closed
	// lastRoot records the root of the last confirmed-successful Put per
	// key — the idempotent re-Put dedupe index.
	lastRoot map[Key]uint64
	probeT   *time.Timer
	closed   bool

	retries     atomic.Int64
	transients  atomic.Int64
	deadlines   atomic.Int64
	trips       atomic.Int64
	recloses    atomic.Int64
	probes      atomic.Int64
	probeFails  atomic.Int64
	failovers   atomic.Int64
	dedupedPuts atomic.Int64
}

// BreakerState is the circuit breaker's position.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed: traffic flows to the inner store.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the inner store is presumed down; Put fails over to the
	// fallback, Get is served from it.
	BreakerOpen
	// BreakerHalfOpen: a probe is in flight deciding whether to re-close.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ErrDeadlineExceeded reports a resilient operation whose retry budget ran
// past its per-op deadline. errors.Is-able.
var ErrDeadlineExceeded = errors.New("ckptstore: resilient op deadline exceeded")

// ErrBreakerOpen reports an operation rejected because the circuit breaker
// is open and no fallback store is configured.
var ErrBreakerOpen = errors.New("ckptstore: remote circuit breaker open")

// ResilientOptions parameterizes the wrapper. The zero value is usable:
// 3 retries, no backoff sleep, no deadline, breaker threshold 3, 50ms
// probes, no fallback.
type ResilientOptions struct {
	// MaxRetries bounds re-attempts after the first try (default 3; < 0
	// disables retries).
	MaxRetries int
	// BaseBackoff is the first retry's sleep, doubling per attempt and
	// capped at MaxBackoff, scaled by jitter in [0.5, 1). Zero sleeps not
	// at all — required in deterministic chaos campaigns.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterSeed seeds the backoff jitter rng.
	JitterSeed int64
	// OpDeadline bounds one operation including all its retries and
	// backoff sleeps; exceeding it returns ErrDeadlineExceeded. Zero
	// disables the deadline.
	OpDeadline time.Duration
	// BreakerThreshold is the consecutive failed-op count that trips the
	// breaker (default 3; < 0 disables the breaker).
	BreakerThreshold int
	// ProbeInterval is the background half-open probe cadence while the
	// breaker is open (default 50ms).
	ProbeInterval time.Duration
	// Fallback, if non-nil, receives Put traffic (and serves Get) while
	// the breaker is open.
	Fallback Store
}

func (o *ResilientOptions) normalize() {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 64 * o.BaseBackoff
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 50 * time.Millisecond
	}
}

// ResilientStats is the wrapper's cumulative counter snapshot. The JSON
// tags are a stable lower_snake schema served by the acrd API and metrics
// exporter.
type ResilientStats struct {
	Retries       int64  `json:"retries"`        // re-attempts after a transient failure
	Transients    int64  `json:"transients"`     // transient attempt failures observed
	Deadlines     int64  `json:"deadlines"`      // ops expired by OpDeadline
	Trips         int64  `json:"trips"`          // breaker closed -> open transitions
	Recloses      int64  `json:"recloses"`       // breaker open -> closed transitions
	Probes        int64  `json:"probes"`         // half-open probes attempted
	ProbeFailures int64  `json:"probe_failures"` // probes that kept the breaker open
	Failovers     int64  `json:"failovers"`      // Puts/Gets served by the fallback store
	DedupedPuts   int64  `json:"deduped_puts"`   // idempotent re-Puts skipped
	State         string `json:"state"`          // current breaker state
}

// ResilientReporter is the capability interface ResilientStatsOf discovers
// through wrapper layers.
type ResilientReporter interface {
	ResilientStats() ResilientStats
}

// ResilientStatsOf looks through a wrapper stack (As) for a
// ResilientReporter and returns its counter snapshot.
func ResilientStatsOf(s Store) (ResilientStats, bool) {
	r, ok := As[ResilientReporter](s)
	if !ok {
		return ResilientStats{}, false
	}
	return r.ResilientStats(), true
}

// NewResilient wraps inner.
func NewResilient(inner Store, opts ResilientOptions) *Resilient {
	opts.normalize()
	return &Resilient{
		Layer:    Layer{inner},
		opts:     opts,
		rng:      rand.New(rand.NewSource(opts.JitterSeed)),
		lastRoot: make(map[Key]uint64),
	}
}

// Name implements Store.
func (r *Resilient) Name() string { return "resilient(" + r.Store.Name() + ")" }

// Close stops the background prober. The wrapper stays usable (the
// breaker just never half-opens again).
func (r *Resilient) Close() {
	r.mu.Lock()
	r.closed = true
	if r.probeT != nil {
		r.probeT.Stop()
		r.probeT = nil
	}
	r.mu.Unlock()
}

// State returns the breaker's current position.
func (r *Resilient) State() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// ResilientStats implements ResilientReporter.
func (r *Resilient) ResilientStats() ResilientStats {
	return ResilientStats{
		Retries:       r.retries.Load(),
		Transients:    r.transients.Load(),
		Deadlines:     r.deadlines.Load(),
		Trips:         r.trips.Load(),
		Recloses:      r.recloses.Load(),
		Probes:        r.probes.Load(),
		ProbeFailures: r.probeFails.Load(),
		Failovers:     r.failovers.Load(),
		DedupedPuts:   r.dedupedPuts.Load(),
		State:         r.State().String(),
	}
}

// open reports whether traffic should bypass the inner store right now.
func (r *Resilient) open() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state != BreakerClosed
}

// noteSuccess resets the breaker's consecutive-failure count.
func (r *Resilient) noteSuccess() {
	r.mu.Lock()
	r.consec = 0
	r.mu.Unlock()
}

// noteFailure books one failed op and trips the breaker at the threshold.
func (r *Resilient) noteFailure() {
	r.mu.Lock()
	if r.state != BreakerClosed || r.opts.BreakerThreshold < 0 {
		r.mu.Unlock()
		return
	}
	r.consec++
	if r.consec < r.opts.BreakerThreshold {
		r.mu.Unlock()
		return
	}
	r.state = BreakerOpen
	r.consec = 0
	r.armProbeLocked()
	r.mu.Unlock()
	r.trips.Add(1)
}

// armProbeLocked schedules the next background probe. r.mu held.
func (r *Resilient) armProbeLocked() {
	if r.closed {
		return
	}
	if r.probeT != nil {
		r.probeT.Stop()
	}
	r.probeT = time.AfterFunc(r.opts.ProbeInterval, r.probe)
}

// prober is the optional cheap health check of the inner store.
type prober interface{ Probe() error }

// probe half-opens the breaker and decides: a healthy inner store
// re-closes it, a failed probe re-opens and re-arms.
func (r *Resilient) probe() {
	r.mu.Lock()
	if r.closed || r.state == BreakerClosed {
		r.mu.Unlock()
		return
	}
	r.state = BreakerHalfOpen
	r.mu.Unlock()
	r.probes.Add(1)

	var err error
	if p, ok := r.Store.(prober); ok {
		err = p.Probe()
	} else {
		// No probe capability: a Get of an impossible key doubles as the
		// health check. Absence is health; only transport failure is not.
		_, gerr := r.Store.Get(Key{Replica: -1, Node: -1, Task: -1, Epoch: 0})
		if gerr != nil && !errors.Is(gerr, ErrNotFound) && !errors.Is(gerr, ErrCorrupt) {
			err = gerr
		}
	}

	r.mu.Lock()
	if r.closed || r.state != BreakerHalfOpen {
		r.mu.Unlock()
		return
	}
	if err == nil {
		r.state = BreakerClosed
		r.consec = 0
		if r.probeT != nil {
			r.probeT.Stop()
			r.probeT = nil
		}
		r.mu.Unlock()
		r.recloses.Add(1)
		return
	}
	r.state = BreakerOpen
	r.armProbeLocked()
	r.mu.Unlock()
	r.probeFails.Add(1)
}

// backoff sleeps before retry attempt (1-based), honoring the deadline
// budget. It reports false when the sleep would overrun the deadline.
func (r *Resilient) backoff(attempt int, start time.Time) bool {
	d := time.Duration(0)
	if r.opts.BaseBackoff > 0 {
		d = r.opts.BaseBackoff << uint(attempt-1)
		if d > r.opts.MaxBackoff {
			d = r.opts.MaxBackoff
		}
		r.mu.Lock()
		d = d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
		r.mu.Unlock()
	}
	if r.opts.OpDeadline > 0 && time.Since(start)+d > r.opts.OpDeadline {
		return false
	}
	if d > 0 {
		time.Sleep(d)
	}
	return true
}

// attempt runs op with the retry/backoff/deadline policy. Transient
// failures are retried; anything else returns immediately.
func (r *Resilient) attempt(op func() error) error {
	start := time.Now()
	var err error
	for try := 0; ; try++ {
		err = op()
		if err == nil || !IsTransientRemote(err) {
			return err
		}
		r.transients.Add(1)
		if try >= r.opts.MaxRetries {
			return err
		}
		if !r.backoff(try+1, start) {
			r.deadlines.Add(1)
			return fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
		}
		r.retries.Add(1)
	}
}

// Put implements Store. While the breaker is open the write fails over to
// the fallback store; with no fallback it fails fast with ErrBreakerOpen.
func (r *Resilient) Put(k Key, ck *Checkpoint) error {
	if r.open() {
		return r.failoverPut(k, ck)
	}
	r.mu.Lock()
	dup := r.lastRoot[k] == ck.Root && ck.Root != 0
	r.mu.Unlock()
	if dup {
		r.dedupedPuts.Add(1)
		return nil
	}
	err := r.attempt(func() error { return r.Store.Put(k, ck) })
	if err != nil {
		r.noteFailure()
		if r.open() {
			// The op that tripped the breaker still deserves degradation:
			// land it on the fallback rather than losing the epoch.
			return r.failoverPut(k, ck)
		}
		return err
	}
	r.noteSuccess()
	r.mu.Lock()
	r.lastRoot[k] = ck.Root
	r.mu.Unlock()
	return nil
}

func (r *Resilient) failoverPut(k Key, ck *Checkpoint) error {
	if r.opts.Fallback == nil {
		return fmt.Errorf("%w: put %v", ErrBreakerOpen, k)
	}
	if err := r.opts.Fallback.Put(k, ck); err != nil {
		return err
	}
	r.failovers.Add(1)
	return nil
}

// Get implements Store. While the breaker is open the read is served from
// the fallback (where failed-over epochs live); with no fallback it fails
// fast with ErrBreakerOpen.
func (r *Resilient) Get(k Key) (*Checkpoint, error) {
	if r.open() {
		return r.failoverGet(k)
	}
	var ck *Checkpoint
	err := r.attempt(func() error {
		var e error
		ck, e = r.Store.Get(k)
		return e
	})
	if err != nil {
		if IsTransientRemote(err) || errors.Is(err, ErrDeadlineExceeded) {
			r.noteFailure()
			if r.open() {
				return r.failoverGet(k)
			}
		}
		return nil, err
	}
	r.noteSuccess()
	return ck, nil
}

func (r *Resilient) failoverGet(k Key) (*Checkpoint, error) {
	if r.opts.Fallback == nil {
		return nil, fmt.Errorf("%w: get %v", ErrBreakerOpen, k)
	}
	ck, err := r.opts.Fallback.Get(k)
	if err != nil {
		return nil, err
	}
	r.failovers.Add(1)
	return ck, nil
}

// Compare implements Store through the resilient Get path, so an open
// breaker compares fallback copies.
func (r *Resilient) Compare(a, b Key) (CompareResult, error) {
	ca, err := r.Get(a)
	if err != nil {
		return CompareResult{}, fmt.Errorf("ckptstore: compare %v: %w", a, err)
	}
	cb, err := r.Get(b)
	if err != nil {
		return CompareResult{}, fmt.Errorf("ckptstore: compare %v: %w", b, err)
	}
	return CompareCheckpoints(ca, cb), nil
}

// Evict implements Store, forwarding to both the inner store and the
// fallback so failed-over epochs obey the same retention bound.
func (r *Resilient) Evict(olderThan uint64) int {
	n := 0
	if !r.open() {
		n += r.Store.Evict(olderThan)
	}
	if r.opts.Fallback != nil {
		n += r.opts.Fallback.Evict(olderThan)
	}
	r.mu.Lock()
	for k := range r.lastRoot {
		if k.Epoch < olderThan {
			delete(r.lastRoot, k)
		}
	}
	r.mu.Unlock()
	return n
}

// Keys implements Enumerator: the union of inner and fallback residency
// (an epoch failed over during an outage is still inventory).
func (r *Resilient) Keys() []Key {
	seen := make(map[Key]bool)
	var out []Key
	add := func(s Store) {
		e, ok := s.(Enumerator)
		if !ok {
			return
		}
		for _, k := range e.Keys() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	add(r.Store)
	if r.opts.Fallback != nil {
		add(r.opts.Fallback)
	}
	return out
}
