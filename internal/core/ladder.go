package core

import (
	"fmt"
	"sort"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/trace"
)

// This file implements the recovery escalation ladder. The buddy
// in-memory checkpoint (tier 0) survives any single node failure, but a
// buddy-pair double fault destroys both physical copies of a logical
// node's checkpoints at once. The ladder adds a durable second tier:
// every Config.FlushEvery-th committed epoch is cloned and written to a
// background flush store (a disk tier by default), and recovery escalates
// through the tiers in order:
//
//	tier 0  buddy in-memory checkpoint at the committed epoch
//	tier 1  the durable flush of the committed epoch
//	tier 2  the newest complete older durable epoch (bounded rework:
//	        the rollback depth is recorded per restore)
//	tier 3  the newest complete epoch on the remote tier
//	        (Config.RemoteStore) — the last resort when the machine lost
//	        both in-memory copies AND the local durable tier is unusable
//
// ErrUnrecoverable is reserved for a genuinely empty ladder — every tier
// exhausted — instead of the first in-memory miss. The remote tier is
// deliberately below every local tier: it is the slowest and least
// reliable path, so recovery only pays its cost (and its failure modes)
// when nothing local survives, and a dark remote can never abort a job
// that still has a local tier to climb to.

// flushClone carries one cloned task checkpoint to the durable writer.
type flushClone struct {
	rep, n, t int
	ck        *ckptstore.Checkpoint
}

// maybeFlush runs on the commit path: it counts the commit toward the
// flush period and, when due, clones the committed epoch's checkpoints
// and hands them to the durable writer. Cloning is synchronous — the
// commit path's buffer recycling (the next commit's Evict) must never
// race the flush — but the durable Puts run on a background goroutine so
// the hot path does not absorb disk latency (see settleWriters for where
// it is joined).
func (c *Controller) maybeFlush(epoch uint64) {
	if c.flushStore == nil {
		return
	}
	c.commitsSinceFlush++
	if c.commitsSinceFlush < c.cfg.FlushEvery {
		return
	}
	c.commitsSinceFlush = 0
	clones, err := c.cloneEpoch(epoch)
	if err != nil {
		c.flushErrs.Add(1)
		c.mark(trace.Store, fmt.Sprintf("flush of epoch %d aborted: %v", epoch, err))
		return
	}
	c.flushWG.Add(1)
	go func() {
		defer c.flushWG.Done()
		if err := c.writeFlush(epoch, clones); err != nil {
			c.flushErrs.Add(1)
			c.mark(trace.Store, fmt.Sprintf("flush of epoch %d failed: %v", epoch, err))
		}
	}()
}

// settleWriters joins the background flush and remote writers when a chaos
// hook is attached. Both writers fire injection points (store.write,
// core.flush, remote.put) from their own goroutines; a fault campaign
// counts those firings, so every one of them must land before the
// controller fires its next point. Called before a round's first point and
// before a ladder walk; Run joins unconditionally at its end. Without a
// hook the writers simply overlap the following rounds.
func (c *Controller) settleWriters() {
	if c.cfg.Chaos != nil {
		c.flushWG.Wait()
		c.remoteWG.Wait()
	}
}

// maybeFlushRemote is maybeFlush's remote-tier counterpart, running on
// the same commit path with its own cadence (Config.RemoteFlushEvery) and
// retention. A remote flush failure is booked and traced but never
// propagates: the remote tier is best-effort by design — local tiers
// carry the recovery guarantee.
func (c *Controller) maybeFlushRemote(epoch uint64) {
	if c.remoteStore == nil {
		return
	}
	c.commitsSinceRemote++
	if c.commitsSinceRemote < c.cfg.RemoteFlushEvery {
		return
	}
	c.commitsSinceRemote = 0
	clones, err := c.cloneEpoch(epoch)
	if err != nil {
		c.remoteErrs.Add(1)
		c.mark(trace.Remote, fmt.Sprintf("remote flush of epoch %d aborted: %v", epoch, err))
		return
	}
	c.remoteWG.Add(1)
	go func() {
		defer c.remoteWG.Done()
		if err := c.writeRemote(epoch, clones); err != nil {
			c.remoteErrs.Add(1)
			c.mark(trace.Remote, fmt.Sprintf("remote flush of epoch %d failed: %v", epoch, err))
		}
	}()
}

// cloneEpoch deep-copies every task checkpoint of the epoch out of the hot
// store, detaching the flush from the commit path's buffer recycling. The
// copies are independent, so they run through runStages at the capture
// stage's width — the clone barrier is commit-path latency over the same
// bytes. Output order (and therefore the durable Put order downstream) is
// the serial walk's whatever the width: workers fill a dense pre-indexed
// slice, first error in index order wins. Runs on the controller goroutine
// between rounds, so it may reuse the round body's outcome scratch.
func (c *Controller) cloneEpoch(epoch uint64) ([]flushClone, error) {
	nodes, tasks := c.cfg.NodesPerReplica, c.cfg.TasksPerNode
	clones := make([]flushClone, 2*nodes*tasks)
	runStages(c.outcomes, stage{width: c.stageWidths().capture, run: func(i int) error {
		n, t := i/tasks, i%tasks
		for rep := 0; rep < 2; rep++ {
			ck, err := c.store.Get(c.key(rep, n, t, epoch))
			if err != nil {
				return err
			}
			clones[rep*nodes*tasks+i] = flushClone{rep, n, t, ck.Clone()}
		}
		return nil
	}})
	if f := firstFailure(c.outcomes); f != nil {
		return nil, f.err
	}
	return clones, nil
}

// writeFlush lands one cloned epoch on the durable tier, registers it in
// the ladder's durable-epoch index, and applies the retention bound.
func (c *Controller) writeFlush(epoch uint64, clones []flushClone) error {
	for _, cl := range clones {
		if err := c.flushStore.Put(c.key(cl.rep, cl.n, cl.t, epoch), cl.ck); err != nil {
			return err
		}
	}
	c.flushMu.Lock()
	i := sort.Search(len(c.flushedEpochs), func(i int) bool { return c.flushedEpochs[i] >= epoch })
	if i == len(c.flushedEpochs) || c.flushedEpochs[i] != epoch {
		c.flushedEpochs = append(c.flushedEpochs, 0)
		copy(c.flushedEpochs[i+1:], c.flushedEpochs[i:])
		c.flushedEpochs[i] = epoch
	}
	if keep := c.cfg.FlushRetain; len(c.flushedEpochs) > keep {
		oldest := c.flushedEpochs[len(c.flushedEpochs)-keep]
		c.flushedEpochs = append(c.flushedEpochs[:0], c.flushedEpochs[len(c.flushedEpochs)-keep:]...)
		c.flushStore.Evict(oldest)
	}
	c.flushMu.Unlock()
	c.flushedCount.Add(1)
	c.fire(point.CoreFlush, point.Info{Replica: -1, Node: -1, Task: -1, Epoch: epoch})
	c.mark(trace.Store, fmt.Sprintf("epoch %d flushed to durable tier (%s)", epoch, c.flushStore.Name()))
	return nil
}

// writeRemote lands one cloned epoch on the remote tier and registers it
// in the remote-epoch index. A resilient wrapper under us may be
// degrading Puts to its local fallback — that still counts as landed: the
// epoch is readable back through the same wrapper.
func (c *Controller) writeRemote(epoch uint64, clones []flushClone) error {
	for _, cl := range clones {
		if err := c.remoteStore.Put(c.key(cl.rep, cl.n, cl.t, epoch), cl.ck); err != nil {
			return err
		}
	}
	c.remoteMu.Lock()
	i := sort.Search(len(c.remoteEpochs), func(i int) bool { return c.remoteEpochs[i] >= epoch })
	if i == len(c.remoteEpochs) || c.remoteEpochs[i] != epoch {
		c.remoteEpochs = append(c.remoteEpochs, 0)
		copy(c.remoteEpochs[i+1:], c.remoteEpochs[i:])
		c.remoteEpochs[i] = epoch
	}
	if keep := c.cfg.RemoteRetain; len(c.remoteEpochs) > keep {
		oldest := c.remoteEpochs[len(c.remoteEpochs)-keep]
		c.remoteEpochs = append(c.remoteEpochs[:0], c.remoteEpochs[len(c.remoteEpochs)-keep:]...)
		c.remoteStore.Evict(oldest)
	}
	c.remoteMu.Unlock()
	c.remoteCount.Add(1)
	c.mark(trace.Remote, fmt.Sprintf("epoch %d flushed to remote tier (%s)", epoch, c.remoteStore.Name()))
	return nil
}

// remoteEpochsNewestFirst snapshots the complete remote epochs at or below
// the committed epoch, newest first — the ladder's tier-3 candidates.
func (c *Controller) remoteEpochsNewestFirst() []uint64 {
	c.remoteMu.Lock()
	defer c.remoteMu.Unlock()
	out := make([]uint64, 0, len(c.remoteEpochs))
	for i := len(c.remoteEpochs) - 1; i >= 0; i-- {
		if e := c.remoteEpochs[i]; e <= c.committedEpoch {
			out = append(out, e)
		}
	}
	return out
}

// durableEpochsNewestFirst snapshots the complete durable epochs at or
// below the committed epoch, newest first — the ladder's tier-1/tier-2
// candidates.
func (c *Controller) durableEpochsNewestFirst() []uint64 {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	out := make([]uint64, 0, len(c.flushedEpochs))
	for i := len(c.flushedEpochs) - 1; i >= 0; i-- {
		if e := c.flushedEpochs[i]; e <= c.committedEpoch {
			out = append(out, e)
		}
	}
	return out
}

// recordLadderRestore books one successful ladder restore: the tier it
// landed on and how many committed epochs of work the restore point lies
// behind the newest commit.
func (c *Controller) recordLadderRestore(tier int, epoch uint64) {
	c.stats.TierRecoveries[tier]++
	c.prog.tierRecoveries[tier].Add(1)
	depth := 0
	for i := len(c.commitLog) - 1; i >= 0 && c.commitLog[i] > epoch; i-- {
		depth++
	}
	c.stats.RollbackDepths = append(c.stats.RollbackDepths, depth)
	if depth > c.stats.MaxRollbackDepth {
		c.stats.MaxRollbackDepth = depth
	}
}

// restartFromCommitted launches the replica from the newest usable
// checkpoint the ladder can find, or from factory state when nothing has
// committed yet. Restoration reads every task checkpoint back out of a
// storage tier — the restart path, like commit and compare, goes
// exclusively through stores.
func (c *Controller) restartFromCommitted(rep int) error {
	c.settleWriters()
	c.fire(point.CoreRestart, point.Info{Replica: rep, Node: -1, Task: -1, Epoch: c.committedEpoch})
	if c.committedEpoch == 0 {
		if err := c.machine.RestartReplica(rep, emptySet(c.cfg.NodesPerReplica, c.cfg.TasksPerNode)); err != nil {
			return fmt.Errorf("core: restart replica %d: %w", rep, err)
		}
		return nil
	}
	// Tier 0: the buddy in-memory checkpoint at the committed epoch.
	err0 := c.machine.RestartReplicaFromStore(rep, c.committedEpoch, c.store)
	if err0 == nil {
		c.recordLadderRestore(0, c.committedEpoch)
		return nil
	}
	if c.flushStore == nil && c.remoteStore == nil {
		// Wrap err0 too: an at-rest corruption verdict (ckptstore.ErrCorrupt)
		// must stay visible to errors.Is even when the ladder has no lower
		// tier — detection succeeded even though recovery cannot.
		return fmt.Errorf("%w: replica %d: committed epoch %d unusable (%w) and no durable tier configured",
			ErrUnrecoverable, rep, c.committedEpoch, err0)
	}
	// Escalate. Settle any in-flight flush first so the durable view is
	// complete, then walk the durable epochs newest-first; a corrupt or
	// incomplete durable epoch is skipped, not fatal.
	c.flushWG.Wait()
	c.mark(trace.Restart, fmt.Sprintf("replica %d escalating past committed epoch %d: %v", rep, c.committedEpoch, err0))
	var lastErr error
	if c.flushStore != nil {
		for _, epoch := range c.durableEpochsNewestFirst() {
			if err := c.machine.RestartReplicaFromStore(rep, epoch, c.flushStore); err != nil {
				lastErr = err
				c.mark(trace.Restart, fmt.Sprintf("replica %d: durable epoch %d unusable: %v", rep, epoch, err))
				continue
			}
			tier := 1
			if epoch != c.committedEpoch {
				tier = 2
			}
			c.recordLadderRestore(tier, epoch)
			c.mark(trace.Restart, fmt.Sprintf("replica %d restored from durable epoch %d (tier %d, rollback depth %d)",
				rep, epoch, tier, c.stats.RollbackDepths[len(c.stats.RollbackDepths)-1]))
			return nil
		}
	}
	// Tier 3: the remote tier, last — the slowest, least reliable path.
	// A dark or flaky remote only adds skipped candidates here; it can
	// never make recovery worse than the local-only ladder.
	if c.remoteStore != nil {
		c.remoteWG.Wait()
		for _, epoch := range c.remoteEpochsNewestFirst() {
			if err := c.machine.RestartReplicaFromStore(rep, epoch, c.remoteStore); err != nil {
				lastErr = err
				c.mark(trace.Restart, fmt.Sprintf("replica %d: remote epoch %d unusable: %v", rep, epoch, err))
				continue
			}
			c.recordLadderRestore(3, epoch)
			c.mark(trace.Restart, fmt.Sprintf("replica %d restored from remote epoch %d (tier 3, rollback depth %d)",
				rep, epoch, c.stats.RollbackDepths[len(c.stats.RollbackDepths)-1]))
			return nil
		}
	}
	if lastErr == nil {
		lastErr = err0
	}
	return fmt.Errorf("%w: replica %d: recovery ladder exhausted (last tier error: %v)", ErrUnrecoverable, rep, lastErr)
}
