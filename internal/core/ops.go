package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/trace"
)

// This file is the controller's control plane: the pieces a long-running
// service (cmd/acrd) needs to observe and steer a job without racing the
// protocol. Two mechanisms:
//
//   - Progress: the protocol counters mirrored into atomics at their
//     update sites, so pollers get live snapshots without touching the
//     controller goroutine's unsynchronized state.
//   - opCh: on-demand operations (forced flush, epoch restore) shipped as
//     closures onto the controller goroutine, where they run between
//     rounds with exclusive access to the protocol state.
//
// The epoch restore, like Config.ResumeEpochs' warm start, is an adoption
// on the controller's one restart path (restart.go).

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
		cks, err := c.borrowEpoch(epoch)
		if err != nil {
			opErr = fmt.Errorf("core: read committed epoch %d: %w", epoch, err)
			return
		}
		if err := c.write(&c.flush, epoch, cks); err != nil {
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
// the committed checkpoint. It is a one-candidate adoption (adopt): the
// epoch must be completely readable from the durable tier before any
// replica is touched, and a restore that fails after touching them falls
// back to the recovery ladder so the job is never left stopped. Returns
// ErrNotRunning when the event loop is not accepting operations within the
// timeout.
func (c *Controller) RestoreEpoch(epoch uint64, timeout time.Duration) error {
	var opErr error
	err := c.runOp(timeout, func() {
		if c.flush.store == nil {
			opErr = fmt.Errorf("core: no durable tier configured")
			return
		}
		c.flush.wg.Wait()
		cd := candidate{st: c.flush.store, name: c.flush.name, epoch: epoch, rung: c.flush.rung(epoch, c.committedEpoch), depth: c.behind(epoch)}
		if touched, err := c.adopt(cd); err != nil {
			opErr = fmt.Errorf("core: restore epoch %d: %w", epoch, err)
			// Replicas were stopped mid-restore: climb the ladder back to
			// the committed checkpoint rather than leave them dead.
			if touched {
				if rerr := c.rollback(0, 1); rerr != nil {
					opErr = fmt.Errorf("core: restore epoch %d failed (%v) and ladder fallback failed: %w", epoch, err, rerr)
				}
			}
			return
		}
		c.book(2, &cd)
		c.committedEpoch = epoch
		c.epochSeq = max(c.epochSeq, epoch)
		c.prog.committedEpoch.Store(epoch)
		c.mark(trace.Restart, fmt.Sprintf("both replicas restored from durable epoch %d on demand", epoch))
	})
	if err != nil {
		return err
	}
	return opErr
}
