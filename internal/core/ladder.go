package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/stages"
	"acr/internal/trace"
)

// This file implements the recovery escalation ladder. The buddy
// in-memory checkpoint (tier 0) survives any single node failure, but a
// buddy-pair double fault destroys both physical copies of a logical
// node's checkpoints at once. Below tier 0 the ladder is data: c.tiers, the
// durable rungs New configured, in order. Every tier.every-th committed
// epoch is borrowed from the hot store and written to each tier's store on
// a background goroutine, and recovery is tier 0 followed by each
// configured tier's complete epochs, newest first. A durable tier keeps one
// copy per compared pair: the commit proved both buddies identical, so it
// stores replica 0's checkpoints only (pairKey) and both replicas restore
// from them. Stats.TierRecoveries books where a restore landed:
//
//	[0]  buddy in-memory checkpoint at the committed epoch
//	[1]  the durable flush tier's copy of the committed epoch
//	[2]  an older complete epoch of the flush tier (bounded rework: the
//	     rollback depth is recorded per restore)
//	[3]  a complete epoch of the remote tier (Config.RemoteStore) — the
//	     last resort when the machine lost both in-memory copies AND the
//	     local durable tier is unusable
//
// ErrUnrecoverable is reserved for a genuinely empty ladder — every tier
// exhausted — instead of the first in-memory miss. The remote tier is
// deliberately below every local tier: it is the slowest and least
// reliable path, so recovery only pays its cost (and its failure modes)
// when nothing local survives, and a dark remote can never abort a job
// that still has a local tier to climb to.

// tier is one durable rung of the ladder: a store, the cadence and
// retention of the flushes into it, the index of the complete epochs it
// holds, and its background writers. The fields up to landed are set once
// in New and read-only afterwards.
type tier struct {
	store  ckptstore.Store
	owned  *ckptstore.Disk // the store, when the controller created it and must close it
	every  int             // flush every N-th committed epoch
	retain int             // complete epochs kept; older ones are evicted after a flush lands
	// rungs are the Stats.TierRecoveries slots a restore from this tier
	// books: [0] at the committed epoch, [1] at an older one.
	rungs [2]int
	// kind, name and verb are the tier's trace vocabulary; landed, when
	// set, is the injection point fired once an epoch is completely
	// written and indexed.
	kind       trace.Kind
	name, verb string
	landed     point.ID

	since int // commits since the last flush (controller goroutine only)
	// mu guards epochs (ascending, complete); wg tracks in-flight writes.
	// flushed / errs are bumped by the writers and read live by Progress.
	mu            sync.Mutex
	epochs        []uint64
	wg            sync.WaitGroup
	flushed, errs atomic.Int64
}

// rung is the TierRecoveries slot for a restore of epoch from this tier.
func (t *tier) rung(epoch, committed uint64) int {
	if epoch == committed {
		return t.rungs[0]
	}
	return t.rungs[1]
}

// has reports whether the tier's index lists the epoch as complete.
func (t *tier) has(epoch uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, found := slices.BinarySearch(t.epochs, epoch)
	return found
}

// index returns the tier's complete epochs, ascending.
func (t *tier) index() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]uint64(nil), t.epochs...)
}

// maybeFlush runs on the commit path: it counts the commit toward every
// tier's flush period and, for each tier that is due, borrows the committed
// epoch's checkpoints and hands them to that tier's writer. Nothing is
// copied here: while a writer holds its borrows the commit path's buffer
// recycling leaves those buffers alone (the pool drops them, the capture
// path does not patch them), and a tier that keeps a checkpoint past its
// Put keeps a copy (ckptstore.Store). The Puts run on a background
// goroutine so the hot path does not absorb disk or network latency (see
// settleWriters for where it is joined). A failed flush is booked and
// traced but never propagates — a dark remote costs remote flush errors,
// not job progress.
func (c *Controller) maybeFlush(epoch uint64) {
	for _, t := range c.tiers {
		t.since++
		if t.since < t.every {
			continue
		}
		t.since = 0
		cks, err := c.borrowEpoch(epoch)
		if err != nil {
			t.errs.Add(1)
			c.mark(t.kind, fmt.Sprintf("%s of epoch %d aborted: %v", t.verb, epoch, err))
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			if err := c.write(t, epoch, cks); err != nil {
				t.errs.Add(1)
				c.mark(t.kind, fmt.Sprintf("%s of epoch %d failed: %v", t.verb, epoch, err))
			}
		}()
	}
}

// settleWriters joins the tiers' background writers when a chaos hook is
// attached. The writers fire injection points (store.write, core.flush,
// remote.put) from their own goroutines; a fault campaign counts those
// firings, so every one of them must land before the controller fires its
// next point. Called before a round's first point and before a ladder walk;
// Run joins unconditionally at its end. Without a hook the writers simply
// overlap the following rounds.
func (c *Controller) settleWriters() {
	if c.cfg.Chaos != nil {
		for _, t := range c.tiers {
			t.wg.Wait()
		}
	}
}

// borrowEpoch borrows, out of the hot store, the checkpoints a durable
// tier keeps of the epoch: one per compared pair, replica 0's, in dense
// (node, task) order (pairKey). The commit has just shown both replicas
// identical, so replica 1's checkpoints stay unborrowed and the pool may
// recycle them once they are evicted. The Gets run through stages.Run at
// the capture stage's width, because a hot store other than Mem (a Disk)
// reads and re-sums each payload; first error in index order wins, and on
// an error nothing stays borrowed. Runs on the controller goroutine between
// rounds, so it may reuse the round body's outcome scratch.
func (c *Controller) borrowEpoch(epoch uint64) ([]*ckptstore.Checkpoint, error) {
	cks := make([]*ckptstore.Checkpoint, len(c.outcomes))
	stages.Run(c.outcomes, c.stageWidths().capture, func(i int) error {
		ck, err := c.store.Get(c.pairKey(i, epoch))
		if err != nil {
			return err
		}
		ck.Borrow()
		cks[i] = ck
		return nil
	})
	if err := stages.FirstFailure(c.outcomes); err != nil {
		releaseAll(cks)
		return nil, err
	}
	return cks, nil
}

// releaseAll ends the borrows borrowEpoch took.
func releaseAll(cks []*ckptstore.Checkpoint) {
	for _, ck := range cks {
		if ck != nil {
			ck.Release()
		}
	}
}

// write lands one borrowed epoch (borrowEpoch: one checkpoint per compared
// pair) on the tier, releases the borrows once the last Put returned
// (landed or not), registers the epoch in the tier's complete-epoch index,
// and applies the retention bound. A resilient wrapper under a remote tier
// may be degrading Puts to its local fallback — that still counts as
// landed: the epoch is readable back through the same wrapper.
func (c *Controller) write(t *tier, epoch uint64, cks []*ckptstore.Checkpoint) error {
	var err error
	for i, ck := range cks {
		if err = t.store.Put(c.pairKey(i, epoch), ck); err != nil {
			break
		}
	}
	releaseAll(cks)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if i, found := slices.BinarySearch(t.epochs, epoch); !found {
		t.epochs = slices.Insert(t.epochs, i, epoch)
	}
	if n := len(t.epochs); n > t.retain {
		t.epochs = append(t.epochs[:0], t.epochs[n-t.retain:]...)
		t.store.Evict(t.epochs[0])
	}
	t.mu.Unlock()
	t.flushed.Add(1)
	if t.landed != "" {
		c.fire(t.landed, point.Info{Replica: -1, Node: -1, Task: -1, Epoch: epoch})
	}
	c.mark(t.kind, fmt.Sprintf("epoch %d flushed to %s tier (%s)", epoch, t.name, t.store.Name()))
	return nil
}
