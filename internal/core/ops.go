package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/trace"
)

// This file is the controller's control plane: the pieces a long-running
// service (cmd/acrd) needs to observe and steer a job without racing the
// protocol. Three mechanisms:
//
//   - Progress: the protocol counters mirrored into atomics at their
//     update sites, so pollers get live snapshots without touching the
//     controller goroutine's unsynchronized state.
//   - opCh: on-demand operations (forced flush, epoch restore) shipped as
//     closures onto the controller goroutine, where they run between
//     rounds with exclusive access to the protocol state.
//   - resumeFromDurable: Config.ResumeEpochs warm start — the recovery
//     ladder's newest-first escalation walk applied at job start, against
//     flush-tier state left behind by an earlier process.

// ErrNotRunning reports a control-plane operation that could not reach the
// controller goroutine: the event loop has exited (job finished or failed)
// or stayed busy past the caller's timeout.
var ErrNotRunning = errors.New("core: controller event loop not accepting operations")

// progressCounters mirrors protocol counters into atomics. Written on the
// controller goroutine at the same sites that update Stats; read from any
// goroutine via Progress().
type progressCounters struct {
	committedEpoch atomic.Uint64
	checkpoints    atomic.Int64
	hardErrors     atomic.Int64
	sdcDetected    atomic.Int64
	rollbacks      atomic.Int64
	folds          atomic.Int64
	tierRecoveries [4]atomic.Int64
	resumedEpoch   atomic.Uint64
}

// Progress is a live snapshot of a running job's protocol counters. The
// JSON tags are the stable lower_snake schema of the acrd API.
type Progress struct {
	CommittedEpoch uint64   `json:"committed_epoch"`
	Checkpoints    int64    `json:"checkpoints"`
	HardErrors     int64    `json:"hard_errors"`
	SDCDetected    int64    `json:"sdc_detected"`
	Rollbacks      int64    `json:"rollbacks"`
	FlushedEpochs  int64    `json:"flushed_epochs"`
	FlushErrors    int64    `json:"flush_errors"`
	TierRecoveries [4]int64 `json:"tier_recoveries"`
	Folds          int64    `json:"folds"`
	Expands        int64    `json:"expands"`
	DegradedNodes  int      `json:"degraded_nodes"`
	ResumedEpoch   uint64   `json:"resumed_epoch"`
	// Remote-tier counters: flush completions/failures plus the resilient
	// wrapper's live retry/breaker/failover accounting. All zero when the
	// job has no remote tier; RemoteBreakerOpen is 1 while the breaker is
	// open or half-open.
	RemoteFlushedEpochs int64 `json:"remote_flushed_epochs"`
	RemoteFlushErrors   int64 `json:"remote_flush_errors"`
	RemoteRetries       int64 `json:"remote_retries"`
	RemoteTrips         int64 `json:"remote_breaker_trips"`
	RemoteRecloses      int64 `json:"remote_breaker_recloses"`
	RemoteFailovers     int64 `json:"remote_failovers"`
	RemoteBreakerOpen   int64 `json:"remote_breaker_open"`
}

// Progress returns a live snapshot of the job's counters. Safe to call from
// any goroutine, before, during, and after Run.
func (c *Controller) Progress() Progress {
	var p Progress
	p.CommittedEpoch = c.prog.committedEpoch.Load()
	p.Checkpoints = c.prog.checkpoints.Load()
	p.HardErrors = c.prog.hardErrors.Load()
	p.SDCDetected = c.prog.sdcDetected.Load()
	p.Rollbacks = c.prog.rollbacks.Load()
	p.FlushedEpochs = c.flush.flushed.Load()
	p.FlushErrors = c.flush.errs.Load()
	for i := range p.TierRecoveries {
		p.TierRecoveries[i] = c.prog.tierRecoveries[i].Load()
	}
	p.Folds = c.prog.folds.Load()
	p.Expands = c.machine.ExpandCount()
	p.DegradedNodes = c.machine.FoldedCount()
	p.ResumedEpoch = c.prog.resumedEpoch.Load()
	p.RemoteFlushedEpochs = c.remote.flushed.Load()
	p.RemoteFlushErrors = c.remote.errs.Load()
	if rs, ok := ckptstore.ResilientStatsOf(c.remote.store); ok {
		p.RemoteRetries = rs.Retries
		p.RemoteTrips = rs.Trips
		p.RemoteRecloses = rs.Recloses
		p.RemoteFailovers = rs.Failovers
		if rs.State != ckptstore.BreakerClosed.String() {
			p.RemoteBreakerOpen = 1
		}
	}
	return p
}

// LadderStores returns the recovery ladder's stores in ladder order: the
// hot store (tier 0), then the flush tier's when Config.FlushEvery > 0,
// then the remote tier's when Config.RemoteStore is set. The acrd inventory
// endpoint enumerates them through ckptstore.Enumerator.
func (c *Controller) LadderStores() []ckptstore.Store {
	out := []ckptstore.Store{c.store}
	for _, t := range c.tiers {
		out = append(out, t.store)
	}
	return out
}

// DurableEpochs returns the flush tier's complete-epoch index, ascending
// (nil without a flush tier). Safe to call from any goroutine.
func (c *Controller) DurableEpochs() []uint64 { return c.flush.index() }

// runOp ships an operation onto the controller goroutine and waits for it
// to complete. The send blocks until the event loop is between rounds;
// timeout bounds that wait (<= 0 selects 30s). Once accepted the operation
// always runs to completion.
func (c *Controller) runOp(timeout time.Duration, op func()) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	done := make(chan struct{})
	wrapped := func() {
		defer close(done)
		op()
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case c.opCh <- wrapped:
	case <-t.C:
		return ErrNotRunning
	}
	<-done
	return nil
}

// FlushCommitted forces an immediate durable flush of the committed epoch,
// regardless of the FlushEvery cadence, and returns the epoch flushed. It
// is the acrd "flush now" endpoint: a fleet operator checkpointing a job
// to disk before draining a machine. Returns ErrNotRunning when the event
// loop is not accepting operations within the timeout.
func (c *Controller) FlushCommitted(timeout time.Duration) (uint64, error) {
	var epoch uint64
	var opErr error
	err := c.runOp(timeout, func() {
		epoch = c.committedEpoch
		switch {
		case c.flush.store == nil:
			opErr = fmt.Errorf("core: no durable tier configured")
			return
		case epoch == 0:
			opErr = fmt.Errorf("core: nothing committed yet")
			return
		}
		// Settle in-flight periodic flushes first; if one already landed
		// this epoch, the forced flush is a no-op.
		c.flush.wg.Wait()
		if c.flush.has(epoch) {
			return
		}
		clones, err := c.cloneEpoch(epoch)
		if err != nil {
			opErr = fmt.Errorf("core: clone committed epoch %d: %w", epoch, err)
			return
		}
		if err := c.write(&c.flush, epoch, clones); err != nil {
			c.flush.errs.Add(1)
			opErr = fmt.Errorf("core: flush committed epoch %d: %w", epoch, err)
			return
		}
		c.mark(trace.Store, fmt.Sprintf("epoch %d flushed on demand", epoch))
	})
	if err != nil {
		return 0, err
	}
	return epoch, opErr
}

// RestoreEpoch rewinds the running job to a durable epoch on demand: both
// replicas restart from the flush tier's copy of the epoch, which becomes
// the committed checkpoint. The epoch must be completely readable from the
// durable tier before any replica is touched; a partial restore failure
// falls back to the recovery ladder so the job is never left stopped.
// Returns ErrNotRunning when the event loop is not accepting operations
// within the timeout.
func (c *Controller) RestoreEpoch(epoch uint64, timeout time.Duration) error {
	var opErr error
	err := c.runOp(timeout, func() {
		if c.flush.store == nil {
			opErr = fmt.Errorf("core: no durable tier configured")
			return
		}
		c.flush.wg.Wait()
		touched, err := c.adoptEpoch(c.flush.store, epoch)
		if err != nil {
			if touched {
				// Replicas were stopped mid-restore: climb the ladder back
				// to the committed checkpoint rather than leave them dead.
				for rep := 0; rep < 2; rep++ {
					if rerr := c.rollbackReplica(rep); rerr != nil {
						opErr = fmt.Errorf("core: restore epoch %d failed (%v) and ladder fallback failed: %w", epoch, err, rerr)
						return
					}
				}
			}
			opErr = fmt.Errorf("core: restore epoch %d: %w", epoch, err)
			return
		}
		c.recordLadderRestore(c.flush.rung(epoch, c.committedEpoch), epoch)
		c.committedEpoch = epoch
		if c.epochSeq < epoch {
			c.epochSeq = epoch
		}
		c.stats.Rollbacks += 2
		c.prog.rollbacks.Add(2)
		c.prog.committedEpoch.Store(epoch)
		c.mark(trace.Restart, fmt.Sprintf("both replicas restored from durable epoch %d on demand", epoch))
	})
	if err != nil {
		return err
	}
	return opErr
}

// adoptEpoch restores both replicas from a durable store's copy of the
// epoch. Verification comes first: every task checkpoint of both replicas
// must read back intact (payload root re-verified by the store) before any
// replica is touched, so an incomplete or corrupt epoch fails with
// touched=false and the job keeps running. The verified checkpoints are
// mirrored into the hot store under the same epoch, making them the
// ladder's tier-0 copy for later failures.
func (c *Controller) adoptEpoch(st ckptstore.Store, epoch uint64) (touched bool, err error) {
	clones := make([]flushClone, 0, 2*c.cfg.NodesPerReplica*c.cfg.TasksPerNode)
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < c.cfg.NodesPerReplica; n++ {
			for t := 0; t < c.cfg.TasksPerNode; t++ {
				ck, gerr := st.Get(c.key(rep, n, t, epoch))
				if gerr != nil {
					return false, fmt.Errorf("durable checkpoint r%d/n%d/t%d@%d: %w", rep, n, t, epoch, gerr)
				}
				clones = append(clones, flushClone{rep, n, t, ck.Clone()})
			}
		}
	}
	for _, cl := range clones {
		if perr := c.store.Put(c.key(cl.rep, cl.n, cl.t, epoch), cl.ck); perr != nil {
			return false, fmt.Errorf("mirror into hot store: %w", perr)
		}
	}
	for rep := 0; rep < 2; rep++ {
		c.machine.StopReplica(rep)
		c.coord.ForgetProgress(rep)
		c.coord.Undone(rep)
		if rerr := c.machine.RestartReplicaFromStore(rep, epoch, c.store); rerr != nil {
			return true, fmt.Errorf("restart replica %d from epoch %d: %w", rep, epoch, rerr)
		}
	}
	return true, nil
}

// resumeFromDurable implements Config.ResumeEpochs: a warm start from the
// newest usable durable epoch, walking to older candidates when one turns
// out corrupt or incomplete — the recovery ladder's escalation applied at
// job start, against state a previous process left behind. Run calls it
// after the machine starts (cold, factory state) and before the event
// loop; when every candidate is unusable the job falls back to the cold
// start it already has.
func (c *Controller) resumeFromDurable() error {
	if len(c.cfg.ResumeEpochs) == 0 {
		return nil
	}
	epochs := append([]uint64(nil), c.cfg.ResumeEpochs...)
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	epochs = dedupeUint64(epochs)
	// Burn the whole candidate range: fresh captures must never collide
	// with stray mirrored keys from a failed adoption attempt.
	c.epochSeq = epochs[len(epochs)-1]
	for i := len(epochs) - 1; i >= 0; i-- {
		epoch := epochs[i]
		// A failed adoption may leave replicas stopped; older candidates (or
		// the cold fallback) restart them.
		if _, err := c.adoptEpoch(c.flush.store, epoch); err != nil {
			c.mark(trace.Restart, fmt.Sprintf("resume: durable epoch %d unusable: %v", epoch, err))
			continue
		}
		c.committedEpoch = epoch
		c.commitLog = append(c.commitLog, epoch)
		c.stats.ResumedEpoch = epoch
		depth := len(epochs) - 1 - i
		// The newest candidate stands in for the committed epoch.
		tier := c.flush.rung(epoch, epochs[len(epochs)-1])
		c.stats.TierRecoveries[tier]++
		c.stats.RollbackDepths = append(c.stats.RollbackDepths, depth)
		if depth > c.stats.MaxRollbackDepth {
			c.stats.MaxRollbackDepth = depth
		}
		c.prog.tierRecoveries[tier].Add(1)
		c.prog.committedEpoch.Store(epoch)
		c.prog.resumedEpoch.Store(epoch)
		// Seed the flush tier's index with the epochs at or below the resume
		// point: a later buddy-pair double fault can then land on the
		// pre-resume flushes.
		c.flush.mu.Lock()
		c.flush.epochs = append([]uint64(nil), epochs[:i+1]...)
		c.flush.mu.Unlock()
		c.mark(trace.Restart, fmt.Sprintf("warm resume from durable epoch %d (tier %d, %d newer epoch(s) skipped)", epoch, tier, depth))
		return nil
	}
	// Every candidate unusable: cold start. Adoption attempts may have
	// left replicas stopped, so restart both from factory state explicitly.
	c.mark(trace.Restart, fmt.Sprintf("resume: all %d durable epoch(s) unusable, cold start", len(epochs)))
	for rep := 0; rep < 2; rep++ {
		c.machine.StopReplica(rep)
		c.coord.ForgetProgress(rep)
		c.coord.Undone(rep)
		if err := c.machine.RestartReplica(rep, emptySet(c.cfg.NodesPerReplica, c.cfg.TasksPerNode)); err != nil {
			return fmt.Errorf("core: cold-start fallback replica %d: %w", rep, err)
		}
	}
	return nil
}

func dedupeUint64(sorted []uint64) []uint64 {
	out := sorted[:0]
	for i, e := range sorted {
		if i == 0 || e != sorted[i-1] {
			out = append(out, e)
		}
	}
	return out
}
