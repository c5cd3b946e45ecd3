package ckptstore

import "sync"

// This file implements checkpoint recycling, the allocation half of the
// commit fast path: double in-memory checkpointing retires one full epoch
// of checkpoints every time a new epoch commits, and at a steady state the
// retiring epoch's buffers are exactly the right size for the next round's
// captures. Feeding Evict's output back into capture turns the per-round
// cost from "allocate + zero + pack" into just "pack", and keeps the
// garbage collector out of the checkpoint critical path entirely.

// PoolCounters is a snapshot of a Pool's activity. The JSON tags are the
// stable lower_snake schema of the acrd API.
type PoolCounters struct {
	// Gets / Puts count the calls; Hits counts Gets that found a buffer
	// with enough capacity, Misses the ones that did not (the caller
	// allocates or grows).
	Gets   int64 `json:"gets"`
	Puts   int64 `json:"puts"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Drops counts Puts rejected because the pool was full, the
	// checkpoint was already pooled (mirrored under two keys), it is
	// retained as a patch-in-place capture base, or a durable tier writer
	// still borrows it. In a write-tracked steady state every evicted
	// checkpoint is retained, so Drops == Puts there is the patch path
	// working, not a leaking pool.
	Drops int64 `json:"drops"`
	// BytesRecycled is the total payload capacity handed back out by hits.
	BytesRecycled int64 `json:"bytes_recycled"`
}

// DefaultPoolCap bounds how many retired checkpoints a Pool retains. Two
// replicas' worth of one epoch for a sizable machine fits comfortably;
// beyond that, holding more buffers than a round can consume is just
// memory pressure.
const DefaultPoolCap = 256

// Pool recycles retired *Checkpoint objects — the payload buffer AND the
// per-chunk sum slice — between checkpoint epochs. It is safe for
// concurrent use.
//
// Ownership protocol: a checkpoint handed to Put must no longer be
// reachable through any Store (Mem.SetPool wires Evict to do exactly
// this). Put drops a checkpoint someone still reads: one retained as a
// patch-in-place capture base, or one a durable tier writer borrowed
// (Checkpoint.Borrow) and has not released yet — an evicted epoch may still
// be flushing. A borrowed checkpoint evicted before its release is left to
// the garbage collector. A checkpoint returned by Get is exclusively the
// caller's until it is Put back or re-captured into a store.
type Pool struct {
	mu   sync.Mutex
	free []*Checkpoint
	max  int
	ctrs PoolCounters
}

// NewPool returns a pool retaining at most max retired checkpoints
// (DefaultPoolCap when max <= 0).
func NewPool(max int) *Pool {
	if max <= 0 {
		max = DefaultPoolCap
	}
	return &Pool{max: max}
}

// Get returns a retired checkpoint whose payload capacity is at least
// hint bytes, preferring the most recently retired one (warmest). When no
// pooled buffer is large enough it still returns the most recent retiree —
// its Sums slice and struct are reusable even if the payload must grow —
// or a fresh zero Checkpoint when the pool is empty. Use Scratch to obtain
// the reusable payload window.
func (p *Pool) Get(hint int) *Checkpoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ctrs.Gets++
	n := len(p.free)
	if n == 0 {
		p.ctrs.Misses++
		return &Checkpoint{}
	}
	pick := -1
	for i := n - 1; i >= 0; i-- {
		if cap(p.free[i].data) >= hint {
			pick = i
			break
		}
	}
	if pick < 0 {
		p.ctrs.Misses++
		pick = n - 1 // reuse struct + Sums; payload will grow
	} else {
		p.ctrs.Hits++
		p.ctrs.BytesRecycled += int64(cap(p.free[pick].data))
	}
	ck := p.free[pick]
	p.free[pick] = p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return ck
}

// Put hands a retired checkpoint back for reuse. Nil checkpoints, retained
// checkpoints (a capture path still holds the buffer as its patch-in-place
// splice base), borrowed checkpoints (a durable tier writer still reads
// the payload), a full pool, and checkpoints already in the pool (the
// recovery path mirrors one *Checkpoint under two keys, so one eviction
// pass can retire the same pointer twice) are dropped — silently creating
// two captures that alias one buffer would corrupt a later epoch.
func (p *Pool) Put(ck *Checkpoint) {
	if ck == nil {
		return
	}
	if ck.retained || ck.Borrowed() {
		p.mu.Lock()
		p.ctrs.Puts++
		p.ctrs.Drops++
		p.mu.Unlock()
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ctrs.Puts++
	if len(p.free) >= p.max {
		p.ctrs.Drops++
		return
	}
	for _, have := range p.free {
		if have == ck {
			p.ctrs.Drops++
			return
		}
	}
	p.free = append(p.free, ck)
}

// Len returns the number of pooled checkpoints.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// Counters returns a snapshot of the pool's activity.
func (p *Pool) Counters() PoolCounters {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ctrs
}

// Recycler is implemented by stores whose Evict can feed retired
// checkpoints into a Pool instead of leaving them to the garbage
// collector. Attaching a pool is only safe when the attaching party owns
// the store exclusively: recycling invalidates evicted checkpoints'
// payloads, so no one may hold Bytes() of an evicted epoch.
type Recycler interface {
	SetPool(*Pool)
}
