package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/failure"
	"acr/internal/pup"
	"acr/internal/runtime"
	"acr/internal/trace"
)

// checkpointRound performs one automatic checkpoint: weak-scheme recovery
// if one is pending, otherwise a coordinated two-replica checkpoint with
// SDC detection.
func (c *Controller) checkpointRound() error {
	switch {
	case c.pendingWeak[0] && c.pendingWeak[1]:
		// Both replicas lost nodes before recovery: fall back to the
		// previous checkpoint (§2.3, weak scheme's failure case).
		c.pendingWeak[0], c.pendingWeak[1] = false, false
		c.mark(trace.Restart, "double failure: rollback to previous checkpoint")
		return c.rollback(0, 1)
	case c.pendingWeak[0]:
		return c.recoveryCheckpoint(0)
	case c.pendingWeak[1]:
		return c.recoveryCheckpoint(1)
	}
	return c.normalRound()
}

// nextEpoch allocates a fresh checkpoint epoch. Epochs burnt by aborted
// or corrupted rounds are reclaimed by the eviction at the next commit.
func (c *Controller) nextEpoch() uint64 {
	c.epochSeq++
	return c.epochSeq
}

// key addresses one task's checkpoint at an epoch.
func (c *Controller) key(rep, n, t int, epoch uint64) ckptstore.Key {
	return ckptstore.Key{Replica: rep, Node: n, Task: t, Epoch: epoch}
}

// pairKey is the key of an epoch's i-th task checkpoint in dense (node,
// task) order as a durable tier keeps it: one copy per compared pair,
// under replica 0's key. borrowEpoch and write flush an epoch in this
// order, and adopt reads one back in it.
func (c *Controller) pairKey(i int, epoch uint64) ckptstore.Key {
	tasks := c.cfg.TasksPerNode
	return c.key(0, i/tasks, i%tasks, epoch)
}

// normalRound checkpoints both replicas and cross-checks buddies.
func (c *Controller) normalRound() error {
	c.settleWriters()
	began := time.Now()
	c.fire(point.CorePreConsensus, point.Info{Replica: -1, Node: -1, Task: -1})
	ready, err := c.coord.Request(consensus.BothReplicas)
	if err != nil {
		return fmt.Errorf("core: checkpoint request: %w", err)
	}
	semi := c.cfg.SemiBlocking
	var blocked time.Duration
	var captureDrained func()
	if semi {
		// Asynchronous checkpointing (§4.2 [27]): the application resumes
		// as soon as the local captures are done; exchange and comparison
		// overlap with execution.
		captureDrained = func() {
			blocked = time.Since(began)
			c.coord.Release()
		}
	}
	// Each replica enters the round body — scheduled SDC injections applied,
	// then chunked, checksummed, one key per task under the round's fresh
	// epoch — as soon as its own tasks are parked.
	var b *roundBody
	var exchange func(n, t int) error
	if c.exch != nil && c.cfg.Exchange.ShipCheckpoints {
		exchange = func(n, t int) error { return c.shipTask(b.epoch, n, t) }
	}
	b = c.openRound(0, consensus.BothReplicas, exchange, captureDrained)
	ok, err := c.awaitReady(ready, b)
	if err != nil || !ok {
		return err
	}
	epoch := b.epoch
	mismatch, chunk, err := b.finish()
	if !semi {
		blocked = time.Since(began)
	}
	if err == nil && c.exch != nil {
		// The round's verdict is itself a message between the replicas
		// (§4.2's result exchange): under the hardened exchange it must
		// cross the lossy link reliably before either side acts on it.
		if rerr := c.exch.shipResult(epoch); rerr != nil {
			err = fmt.Errorf("core: exchange compare result: %w", rerr)
		}
	}
	switch {
	case err != nil: // nothing to book: release the cut and report it
	case mismatch != "":
		// Silent data corruption: both replicas roll back to the
		// previous safely stored checkpoint (§2.1). Under semi-blocking
		// the application also loses the overlap window it just ran.
		c.stats.SDCDetected++
		c.prog.sdcDetected.Add(1)
		c.stats.LocalizedChunks = append(c.stats.LocalizedChunks, chunk)
		c.mark(trace.Failure, "sdc detected: "+mismatch)
	default:
		c.commit(epoch, began, false)
		c.stats.BlockedTimes = append(c.stats.BlockedTimes, blocked)
	}
	if !semi {
		c.coord.Release()
	}
	if err == nil && mismatch != "" {
		return c.rollback(0, 1)
	}
	return err
}

// resetPhases clears the per-round phase accumulators; called when a round
// passes its consensus cut.
func (c *Controller) resetPhases() {
	for i := range c.clocks {
		c.clocks[i].Reset()
	}
	c.roundFetch.Reset()
}

// recoveryCheckpoint is the weak-scheme recovery: the healthy replica
// checkpoints, and the crashed replica is restored from it (Figure 5d).
// The same path implements the medium scheme's forced checkpoint when
// called directly from handleFailure (Figure 5c). It is the round body at
// one-replica scope: the mirror is its exchange stage and it has no compare
// stage — which is why queued InjectSDCAtNextCheckpoint addresses are not
// applied here but stay queued for the next compared round.
func (c *Controller) recoveryCheckpoint(crashed int) error {
	healthy := 1 - crashed
	c.settleWriters()
	began := time.Now()
	// The recovery window of §2.3 opens here: what happens between this
	// point and the trusted commit is invisible to SDC detection. A hook
	// that crashes the healthy replica here exercises the double-fault
	// path; the firing precedes the consensus request, so the crash races
	// the cut exactly as a real mid-recovery failure would.
	c.fire(point.CoreRecovery, point.Info{Replica: crashed, Node: -1, Task: -1})
	ready, err := c.coord.Request(consensus.OnlyReplica(healthy))
	if err != nil {
		return fmt.Errorf("core: recovery checkpoint request: %w", err)
	}
	// The healthy node's local checkpoint is simultaneously the remote
	// checkpoint of its buddy in the crashed replica: "sends the
	// checkpoint to the crashed replica" (§2.3). The exchange stage mirrors
	// each stored checkpoint under the crashed replica's key; on the direct
	// path the chunked capture is shared, not recomputed, while the
	// hardened exchange ships it chunk-by-chunk through the lossy link and
	// stores the reassembled copy.
	var b *roundBody
	mirror := func(n, t int) error { return c.mirrorTask(crashed, b.epoch, n, t) }
	b = c.openRound(0, consensus.OnlyReplica(healthy), mirror, nil)
	ok, err := c.awaitReady(ready, b)
	if err != nil || !ok {
		return err
	}
	defer c.coord.Release()
	epoch := b.epoch
	if _, _, err := b.finish(); err != nil {
		return err
	}
	// This checkpoint is trusted without comparison: SDC that struck the
	// healthy replica since the last verified checkpoint is undetectable
	// here — the medium/weak vulnerability window of §2.3 and Figure 7b.
	c.commit(epoch, began, true)
	c.mark(trace.Checkpoint, fmt.Sprintf("recovery checkpoint by replica %d", healthy))
	// Restore the crashed replica from the fresh checkpoint.
	if err := c.relaunch(crashed, epoch, false, func() error {
		return c.machine.RestartReplicaFromStore(crashed, epoch, c.store)
	}); err != nil {
		return fmt.Errorf("core: restart replica %d: %w", crashed, err)
	}
	c.book(1, nil)
	c.mark(trace.Restart, fmt.Sprintf("replica %d restored from replica %d's checkpoint", crashed, healthy))
	c.pendingWeak[crashed] = false
	return nil
}

// awaitReady feeds the round body the replicas the consensus hands over
// while it waits for the cut, staying responsive to failures and job
// completion. It returns ok=true once every replica in scope is handed at
// one target, and ok=false when the round was aborted (a failure won the
// race and was handled). An abort joins the body's in-flight work before
// it releases the cut.
func (c *Controller) awaitReady(ready <-chan consensus.Handoff, b *roundBody) (bool, error) {
	wait := c.waitErr
	for {
		select {
		case h := <-ready:
			// A replica whose handoff is already waiting behind this one
			// was ready together with it: they start together.
			select {
			case h2 := <-ready:
				if b.take(h, h2) {
					return true, nil
				}
			default:
				if b.take(h) {
					return true, nil
				}
			}
		case f := <-c.machine.Failures():
			// A hard error interrupts the round: abort, recover, retry
			// at the next period.
			c.stats.AbortedRounds++
			b.abort()
			c.coord.Release()
			if err := c.handleFailure(f); err != nil {
				return false, err
			}
			return false, nil
		case err := <-wait:
			if err != nil {
				b.abort()
				c.coord.Release()
				return false, err
			}
			// Job completed: the cut is trivially ready (completed
			// tasks count as parked), so it will fire momentarily.
			// Hand the completion signal back for the event loop and
			// stop watching it here.
			go func() { c.waitErr <- c.machine.Wait() }()
			wait = nil
		}
	}
}

// compareTask cross-checks one buddy pair. Store fetches are counted as
// exchange time — the bytes a real machine would ship between buddies.
func (c *Controller) compareTask(n, t int, epoch uint64) (string, int, error) {
	switch c.cfg.Comparison {
	case ChecksumCompare:
		// Two-phase Merkle-style compare: roots first (the 32-byte
		// exchange of §4.2), per-chunk sums only on mismatch, which
		// names the corrupted chunk.
		var res ckptstore.CompareResult
		if c.exch != nil && c.cfg.Exchange.ShipCheckpoints {
			// The sender's digest crossed the link in the exchange stage
			// (shipTask); the verdict rests on what arrived, held against
			// the other replica's own checkpoint. The round body's hand-off
			// from exchange to compare orders the slot's write before this
			// read.
			remote := &c.digests[n*c.cfg.TasksPerNode+t]
			if remote.epoch != epoch {
				return "", -1, fmt.Errorf("core: checksum compare n%d/t%d@e%d: no digest arrived for this epoch", n, t, epoch)
			}
			local, err := c.store.Get(c.key(1-c.sender, n, t, epoch))
			if err != nil {
				return "", -1, fmt.Errorf("core: checksum compare n%d/t%d: %w", n, t, err)
			}
			res = ckptstore.CompareDigests(remote.digest, local.Digest())
		} else {
			// Nothing crossed a link: the compare runs inside the store.
			exchBegan := time.Now()
			var err error
			res, err = c.store.Compare(c.key(0, n, t, epoch), c.key(1, n, t, epoch))
			c.roundFetch.Add(time.Since(exchBegan))
			if err != nil {
				return "", -1, fmt.Errorf("core: checksum compare n%d/t%d: %w", n, t, err)
			}
		}
		if !res.Match {
			return fmt.Sprintf("checksum %v at n%d/t%d", res, n, t), res.Chunk, nil
		}
	case FullCompare:
		exchBegan := time.Now()
		remote, err := c.store.Get(c.key(0, n, t, epoch)) // buddy's checkpoint, shipped over
		c.roundFetch.Add(time.Since(exchBegan))
		if err != nil {
			return "", -1, fmt.Errorf("core: fetch remote checkpoint n%d/t%d: %w", n, t, err)
		}
		exchBegan = time.Now()
		local, err := c.store.Get(c.key(1, n, t, epoch)) // replica 2's local checkpoint
		c.roundFetch.Add(time.Since(exchBegan))
		if err != nil {
			return "", -1, fmt.Errorf("core: fetch local checkpoint n%d/t%d: %w", n, t, err)
		}
		if !bytes.Equal(remote.Bytes(), local.Bytes()) {
			chunk := firstDiffChunk(remote.Bytes(), local.Bytes(), remote.ChunkSize)
			return fmt.Sprintf("byte mismatch at n%d/t%d chunk %d", n, t, chunk), chunk, nil
		}
	}
	return "", -1, nil
}

// firstDiffChunk localizes the first differing byte of two buffers to its
// chunk. Unequal lengths (a corrupted slice-length header can shift every
// later byte) are a mismatch at the first chunk past the common prefix —
// never a panic.
func firstDiffChunk(a, b []byte, chunkSize int) int {
	if chunkSize <= 0 {
		chunkSize = checksum.DefaultChunkSize
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i / chunkSize
		}
	}
	if len(a) != len(b) {
		return n / chunkSize
	}
	return -1
}

// commit makes the epoch the committed checkpoint — verified by the buddy
// comparison, or, for a medium/weak recovery checkpoint, trusted without
// one — evicts every older epoch (including ones burnt by aborted rounds),
// flushes to the tiers that are due, and publishes the store's counters to
// the timeline.
func (c *Controller) commit(epoch uint64, began time.Time, trusted bool) {
	c.committedEpoch = epoch
	c.commitLog = append(c.commitLog, epoch)
	c.stats.Checkpoints++
	c.prog.checkpoints.Add(1)
	c.prog.committedEpoch.Store(epoch)
	c.stats.CheckpointTimes = append(c.stats.CheckpointTimes, time.Since(began))
	c.appendPhaseTimes()
	c.store.Evict(epoch)
	if c.exch != nil {
		c.exch.prune(epoch)
	}
	if !trusted {
		c.mark(trace.Checkpoint, fmt.Sprintf("checkpoint %d committed (epoch %d)", c.stats.Checkpoints, epoch))
	}
	c.fire(point.CoreCommit, point.Info{Replica: -1, Node: -1, Task: -1, Epoch: epoch})
	c.maybeFlush(epoch)
	c.markStore()
}

// appendPhaseTimes records the committed round's capture/exchange/compare
// split from the stage clocks, keeping the phase arrays parallel with
// CheckpointTimes. compareTask's store fetches — the bytes a real machine
// ships between buddies — happen inside the compare stage's span and are
// billed to exchange busy as well. The spans start at the round's first
// handoff, which can precede the cut's completion by the leader's lead:
// the leader's capture and exchange overlap the laggard's catch-up, so the
// spans can cover time the consensus wait also covers, and a derived
// "round minus the spans" (bench's core.other_ms_p50) can read low or
// negative.
func (c *Controller) appendPhaseTimes() {
	wall, busy := c.phaseTimes()
	c.stats.CaptureTimes = append(c.stats.CaptureTimes, wall[0])
	c.stats.ExchangeTimes = append(c.stats.ExchangeTimes, wall[1])
	c.stats.CompareTimes = append(c.stats.CompareTimes, wall[2])
	c.stats.CaptureBusyTimes = append(c.stats.CaptureBusyTimes, busy[0])
	c.stats.ExchangeBusyTimes = append(c.stats.ExchangeBusyTimes, busy[1])
	c.stats.CompareBusyTimes = append(c.stats.CompareBusyTimes, busy[2])
}

// phaseTimes reads the current round's capture / exchange / compare spans
// and busy sums off the stage clocks.
func (c *Controller) phaseTimes() (wall, busy [3]time.Duration) {
	for i := range c.clocks {
		wall[i], busy[i] = c.clocks[i].Wall(), c.clocks[i].Busy()
	}
	busy[1] += c.roundFetch.Load()
	return wall, busy
}

// markStore emits a trace.Store event carrying the store's counters. Its
// compares count store-side verdicts only: a checksum round over a link
// decides on the received digest and asks the store for a Get instead.
func (c *Controller) markStore() {
	if c.cfg.Timeline == nil {
		return
	}
	ctr := c.store.Counters()
	c.mark(trace.Store, fmt.Sprintf(
		"store=%s written=%dB read=%dB chunks-stored=%d compares=%d compare-time=%s localized-chunk=%d",
		c.store.Name(), ctr.BytesWritten, ctr.BytesRead, ctr.ChunksStored,
		ctr.Compares, ctr.CompareTime, ctr.LastLocalizedChunk))
}

// handleFailure recovers from one detected fail-stop error per the
// configured scheme.
func (c *Controller) handleFailure(f runtime.Failure) error {
	if c.machine.Alive(f.Replica, f.Node) {
		// False suspicion (the node answered after all): ignore.
		return nil
	}
	c.stats.HardErrors++
	c.prog.hardErrors.Add(1)
	c.history.Record(c.now())
	c.mark(trace.Failure, fmt.Sprintf("hard error r%d/n%d", f.Replica, f.Node))
	c.adaptInterval()

	other := 1 - f.Replica
	if !c.machine.Alive(other, f.Node) {
		// Buddy-pair double fault: both physical holders of logical node
		// f.Node's in-memory checkpoints are dead, so every epoch of that
		// node's tier-0 copies is gone (in both replicas — each side held
		// the other's remote copy). Model the loss in the volatile tier;
		// recovery escalates down the ladder. The drop is idempotent
		// across the two failure events, so the pair is counted once.
		if v, ok := c.store.(ckptstore.Volatile); ok {
			if n := v.DropNode(0, f.Node) + v.DropNode(1, f.Node); n > 0 {
				c.stats.BuddyPairLosses++
				c.mark(trace.Failure, fmt.Sprintf("buddy pair n%d lost both in-memory copies (%d checkpoints dropped)", f.Node, n))
			}
		}
	}

	if err := c.machine.ReplaceWithSpare(f.Replica, f.Node); err != nil {
		if !errors.Is(err, runtime.ErrSpareExhausted) || !c.cfg.Degraded {
			// Keep the cause wrapped: callers branch on ErrUnrecoverable for
			// the verdict and on ErrSpareExhausted for the reason.
			return fmt.Errorf("%w at r%d/n%d: %w", ErrUnrecoverable, f.Replica, f.Node, err)
		}
		// Degraded mode: shrink instead of dying. The failed node's tasks
		// fold onto the least-loaded survivor of the same replica; the
		// per-scheme recovery below restarts them there from a checkpoint
		// exactly as it would on a spare.
		host, foldErr := c.machine.FoldOntoSurvivor(f.Replica, f.Node)
		if foldErr != nil {
			return fmt.Errorf("%w at r%d/n%d: %v", ErrUnrecoverable, f.Replica, f.Node, foldErr)
		}
		c.stats.Folds++
		c.prog.folds.Add(1)
		c.fire(point.CoreFold, point.Info{Replica: f.Replica, Node: f.Node, Task: host})
		c.mark(trace.Fold, fmt.Sprintf("spares exhausted: r%d/n%d folded onto survivor n%d (degraded)", f.Replica, f.Node, host))
		if c.cfg.OnFold != nil {
			c.cfg.OnFold()
		}
	} else {
		c.stats.SparesUsed++
	}
	if c.pendingWeak[f.Replica] {
		// Another node of an already-crashed replica: the pending
		// recovery will restore the whole replica anyway.
		return nil
	}
	if c.pendingWeak[other] {
		// Both replicas have now lost nodes before recovery completed:
		// roll everything back to the previous checkpoint (§2.3).
		c.pendingWeak[other] = false
		c.mark(trace.Restart, "failure in healthy replica during pending recovery")
		return c.rollback(0, 1)
	}

	switch c.cfg.Scheme {
	case Strong:
		// Roll the crashed replica back to the previous checkpoint; the
		// restarting node's state comes from its buddy's local
		// checkpoint, every other node uses its own (§2.3). The healthy
		// replica keeps running and waits at the next checkpoint for
		// the crashed replica to catch up (Figure 4a).
		c.mark(trace.Restart, fmt.Sprintf("strong: replica %d rolls back", f.Replica))
		return c.rollback(f.Replica)
	case Medium:
		// Force an immediate checkpoint in the healthy replica and
		// restart the crashed replica from it (Figure 4b).
		c.mark(trace.Restart, fmt.Sprintf("medium: immediate checkpoint by replica %d", other))
		c.pendingWeak[f.Replica] = true // reuse the recovery path
		return c.recoveryCheckpoint(f.Replica)
	case Weak:
		c.pendingWeak[f.Replica] = true
		if c.cfg.CheckpointInterval <= 0 {
			// No timer will ever start the next periodic checkpoint, so
			// waiting for it could wait forever (the healthy replica may
			// even have finished): take the recovery checkpoint now, as
			// the medium scheme does.
			c.mark(trace.Restart, fmt.Sprintf("weak without a checkpoint timer: immediate checkpoint by replica %d", other))
			return c.recoveryCheckpoint(f.Replica)
		}
		// Do nothing now; the next periodic checkpoint doubles as the
		// recovery source (Figure 4c).
		return nil
	}
	return fmt.Errorf("core: unknown scheme %v", c.cfg.Scheme)
}

// sdcFlip is one applied injection: the task and the bit of its packed
// state that was flipped.
type sdcFlip struct {
	addr      runtime.Addr
	byte, bit int
}

// applyPendingSDCTo flips one random bit in the user data of each scheduled
// task of the marked replicas, in the order they were scheduled; addresses
// of other replicas stay queued. Injection happens at the quiescent point
// just before packing — each replica's own handoff — emulating the paper's
// injector (§6.1) without racing the application. It returns the flips it
// applied, for withdrawSDC.
func (c *Controller) applyPendingSDCTo(reps [2]bool) []sdcFlip {
	c.sdcMu.Lock()
	var apply []runtime.Addr
	keep := c.pendingSDC[:0]
	for _, addr := range c.pendingSDC {
		if reps[addr.Replica] {
			apply = append(apply, addr)
		} else {
			keep = append(keep, addr)
		}
	}
	c.pendingSDC = keep
	c.sdcMu.Unlock()
	var flips []sdcFlip
	for _, addr := range apply {
		if f, ok := c.corruptTask(addr); ok {
			flips = append(flips, f)
		}
	}
	return flips
}

// withdrawSDC undoes injections applied in a round that then aborted,
// while their replicas are still parked, and queues their addresses again
// ahead of any newer ones: an injection lands in the capture of exactly one
// compared round, as InjectSDCAtNextCheckpoint promises, whether or not the
// round it first met completed its cut.
func (c *Controller) withdrawSDC(flips []sdcFlip) {
	if len(flips) == 0 {
		return
	}
	addrs := make([]runtime.Addr, len(flips))
	for i, f := range flips {
		addrs[i] = f.addr
		c.machine.CorruptTask(f.addr, func(p pup.Pupable) {
			data, err := pup.Pack(p)
			if err != nil || f.byte >= len(data) {
				return
			}
			data[f.byte] ^= 1 << f.bit
			_ = pup.Unpack(data, p)
		})
		c.mark(trace.Progress, fmt.Sprintf("sdc injection at %v withdrawn: its round did not complete", f.addr))
	}
	c.sdcMu.Lock()
	c.pendingSDC = append(addrs, c.pendingSDC...)
	c.sdcMu.Unlock()
}

// corruptTask flips one random non-structural bit in the task's pup'd
// state: pack, flip, verify the flip still unpacks (retrying bits that land
// in length prefixes), then write the corrupted state back into the live
// program. ok is false when no bit could be flipped.
func (c *Controller) corruptTask(addr runtime.Addr) (flip sdcFlip, ok bool) {
	rng := rand.New(rand.NewSource(c.injectSeed))
	c.injectSeed++
	c.machine.CorruptTask(addr, func(p pup.Pupable) {
		data, err := pup.Pack(p)
		if err != nil || len(data) == 0 {
			return
		}
		probe := c.cfg.Factory(addr)
		for attempt := 0; attempt < 64; attempt++ {
			i, b := failure.FlipBit(data, rng)
			if pup.Unpack(data, probe) == nil {
				_ = pup.Unpack(data, p)
				c.mark(trace.Progress, fmt.Sprintf("sdc injected at %v byte %d bit %d", addr, i, b))
				flip, ok = sdcFlip{addr: addr, byte: i, bit: b}, true
				return
			}
			data[i] ^= 1 << b // structural hit: restore and retry
		}
	})
	return flip, ok
}
