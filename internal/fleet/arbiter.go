package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/ckptstore"
)

// Arbiter is the fleet's checkpoint-I/O governor: a token-bucket bandwidth
// budget plus an optional transfer-slot limit shared by every job's durable
// flush traffic. Writers (tier-1 flush Puts) pass through a FIFO turnstile
// and pay for their bytes; a flush storm from one job therefore queues
// behind the budget instead of saturating the disk tier. Reads — recovery
// traffic walking the escalation ladder — are the priority class: they
// bypass the budget entirely, because delaying a restart to protect flush
// throughput inverts the whole point of having flushed.
//
// A writer is admitted once the balance covers its bytes (capped at the
// one-second burst, so a transfer larger than the burst is admitted at a
// full bucket and leaves debt behind rather than blocking forever). The
// debt is paid off by refill before the next writer passes, which keeps
// long-run throughput at BytesPerSec for any transfer-size mix.
type Arbiter struct {
	bytesPerSec float64
	slots       chan struct{}

	// turnstile serializes waiting writers so budget is granted in arrival
	// order (Go mutexes switch to FIFO handoff under contention, which is
	// exactly the fairness wanted here).
	turnstile sync.Mutex
	mu        sync.Mutex
	tokens    float64 // may be negative: outstanding debt
	last      time.Time

	writeWaits  atomic.Int64
	writeWaitNs atomic.Int64
	writeBytes  atomic.Int64
	readBypass  atomic.Int64
}

// ArbiterStats is a snapshot of the arbiter's traffic counters.
type ArbiterStats struct {
	WriteWaits   int64         `json:"write_waits"`   // writes that had to queue for budget
	WriteWait    time.Duration `json:"write_wait_ns"` // total time writers spent queued
	WriteBytes   int64         `json:"write_bytes"`   // bytes admitted through the budget
	ReadBypasses int64         `json:"read_bypasses"` // recovery reads that skipped the queue
}

// NewArbiter builds an arbiter with the given write budget in bytes per
// second (<= 0: unlimited, stats only) and concurrent-transfer slot count
// (<= 0: unlimited). The bucket starts full with a one-second burst.
func NewArbiter(bytesPerSec float64, transferSlots int) *Arbiter {
	a := &Arbiter{bytesPerSec: bytesPerSec, last: time.Now()}
	if bytesPerSec > 0 {
		a.tokens = bytesPerSec // one-second burst
	}
	if transferSlots > 0 {
		a.slots = make(chan struct{}, transferSlots)
	}
	return a
}

// refillLocked credits tokens for the time elapsed since the last refill,
// capped at the one-second burst. Callers hold a.mu.
func (a *Arbiter) refillLocked(now time.Time) {
	a.tokens += now.Sub(a.last).Seconds() * a.bytesPerSec
	if a.tokens > a.bytesPerSec {
		a.tokens = a.bytesPerSec
	}
	a.last = now
}

// AcquireWrite blocks until the caller may move n bytes of flush traffic,
// charging them against the shared budget. Pair with Release.
func (a *Arbiter) AcquireWrite(n int) {
	if a.slots != nil {
		a.slots <- struct{}{}
	}
	a.writeBytes.Add(int64(n))
	if a.bytesPerSec <= 0 {
		return
	}
	a.turnstile.Lock()
	defer a.turnstile.Unlock()
	start := time.Now()
	waited := false
	need := float64(n)
	if need > a.bytesPerSec {
		need = a.bytesPerSec // burst cap; see the type comment
	}
	a.mu.Lock()
	for {
		a.refillLocked(time.Now())
		if a.tokens >= need {
			a.tokens -= float64(n)
			a.mu.Unlock()
			break
		}
		// Sleep off the shortfall outside the balance lock; the turnstile
		// keeps later writers queued behind us.
		shortfall := need - a.tokens
		a.mu.Unlock()
		waited = true
		time.Sleep(time.Duration(shortfall / a.bytesPerSec * float64(time.Second)))
		a.mu.Lock()
	}
	if waited {
		a.writeWaits.Add(1)
		a.writeWaitNs.Add(int64(time.Since(start)))
	}
}

// NoteRead records a budget-exempt recovery read. Pair with Release when a
// slot limit is configured; reads still occupy a transfer slot (the disk
// has finitely many heads) but never queue for bandwidth.
func (a *Arbiter) NoteRead() {
	if a.slots != nil {
		a.slots <- struct{}{}
	}
	a.readBypass.Add(1)
}

// Release returns the transfer slot taken by AcquireWrite or NoteRead.
func (a *Arbiter) Release() {
	if a.slots != nil {
		<-a.slots
	}
}

// Stats snapshots the traffic counters.
func (a *Arbiter) Stats() ArbiterStats {
	return ArbiterStats{
		WriteWaits:   a.writeWaits.Load(),
		WriteWait:    time.Duration(a.writeWaitNs.Load()),
		WriteBytes:   a.writeBytes.Load(),
		ReadBypasses: a.readBypass.Load(),
	}
}

// Wrap returns a ckptstore.Store whose writes pass through the arbiter —
// the value a fleet job plugs into core.Config.FlushStore so its background
// flusher competes fairly for the shared disk tier.
func (a *Arbiter) Wrap(inner ckptstore.Store) ckptstore.Store {
	return &arbitratedStore{Layer: ckptstore.Layer{Store: inner}, arb: a}
}

// arbitratedStore throttles Put traffic against the shared budget and lets
// Get (recovery) traffic bypass it. Everything else is ckptstore.Layer's
// forwarding: Compare, Evict and Counters are metadata operations, not
// disk-tier transfers, and Keys/Inner keep the tier enumerable and visible
// to ckptstore.As through the wrapper.
type arbitratedStore struct {
	ckptstore.Layer
	arb *Arbiter
}

func (s *arbitratedStore) Put(k ckptstore.Key, ck *ckptstore.Checkpoint) error {
	s.arb.AcquireWrite(ck.Len())
	defer s.arb.Release()
	return s.Store.Put(k, ck)
}

func (s *arbitratedStore) Get(k ckptstore.Key) (*ckptstore.Checkpoint, error) {
	s.arb.NoteRead()
	defer s.arb.Release()
	return s.Store.Get(k)
}

func (s *arbitratedStore) Name() string { return "arb(" + s.Store.Name() + ")" }
