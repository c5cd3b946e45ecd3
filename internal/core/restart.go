package core

import (
	"fmt"
	"slices"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/stages"
	"acr/internal/trace"
)

// This file is the controller's one restart path. The paper's strong,
// medium and weak schemes (§2.3) differ only in which checkpoint a crashed
// replica restarts from, and the recovery ladder, RestoreEpoch and
// Config.ResumeEpochs only add candidates below those. relaunch restarts
// one replica, walk tries candidates newest first, book records the cost;
// rollback (the ladder), adopt (one durable epoch for both replicas) and
// resume put them together.

// candidate is one checkpoint set a restart may launch from: an epoch held
// by a store, the Stats.TierRecoveries rung a restore from it books, and
// how many committed epochs of work it lies behind the newest commit.
type candidate struct {
	st    ckptstore.Store
	name  string // the tier's name on the timeline
	epoch uint64
	rung  int
	depth int
}

// relaunch restarts one replica. It stops the replica, joins the tiers'
// writers when settle is set (settleWriters: a ladder walk must see their
// firings land first), and fires point.CoreRestart at epoch. The firing
// comes only once the replica is quiescent: hooks take it as the boundary
// after which the replica's task progress legitimately regresses, so no
// stale pre-stop progress report may follow it. The replica's progress is
// then forgotten at the consensus and it launches again through restore,
// or from factory state when restore is nil (nothing has committed).
func (c *Controller) relaunch(rep int, epoch uint64, settle bool, restore func() error) error {
	c.machine.StopReplica(rep)
	if settle {
		c.settleWriters()
	}
	c.fire(point.CoreRestart, point.Info{Replica: rep, Node: -1, Task: -1, Epoch: epoch})
	c.coord.ForgetProgress(rep)
	c.coord.Undone(rep)
	if restore != nil {
		return restore()
	}
	factory := make([][][]byte, c.cfg.NodesPerReplica)
	for n := range factory {
		factory[n] = make([][]byte, c.cfg.TasksPerNode)
	}
	if err := c.machine.RestartReplica(rep, factory); err != nil {
		return fmt.Errorf("core: restart replica %d: %w", rep, err)
	}
	return nil
}

// walk tries the candidates in order — every caller lists them newest
// first — and returns the first one try accepts. A corrupt or incomplete
// candidate is traced under who and skipped, not fatal. When none is
// accepted, err is the last candidate's error (nil for an empty list).
func (c *Controller) walk(who string, cands []candidate, try func(candidate) error) (*candidate, error) {
	var err error
	for i := range cands {
		if err = try(cands[i]); err == nil {
			return &cands[i], nil
		}
		c.mark(trace.Restart, fmt.Sprintf("%s: %s epoch %d unusable: %v", who, cands[i].name, cands[i].epoch, err))
	}
	return nil, err
}

// book records a restart: rollbacks replica relaunches and, when the
// restart landed on a ladder candidate (at != nil), the rung it booked and
// how far it rolled back.
func (c *Controller) book(rollbacks int, at *candidate) {
	c.stats.Rollbacks += rollbacks
	c.prog.rollbacks.Add(int64(rollbacks))
	if at == nil {
		return
	}
	c.stats.TierRecoveries[at.rung]++
	c.prog.tierRecoveries[at.rung].Add(1)
	c.stats.RollbackDepths = append(c.stats.RollbackDepths, at.depth)
	c.stats.MaxRollbackDepth = max(c.stats.MaxRollbackDepth, at.depth)
}

// behind counts the committed epochs newer than epoch: the work a restore
// of it rolls back.
func (c *Controller) behind(epoch uint64) int {
	depth := 0
	for i := len(c.commitLog) - 1; i >= 0 && c.commitLog[i] > epoch; i-- {
		depth++
	}
	return depth
}

// rollback relaunches each replica in reps, in order, from the newest
// usable checkpoint the recovery ladder holds (ladder), or from factory
// state when nothing has committed yet: the strong scheme's restart of a
// crashed replica, and the rollback of both replicas after an SDC or a
// failure in each.
func (c *Controller) rollback(reps ...int) error {
	for _, rep := range reps {
		var at *candidate
		var restore func() error
		if c.committedEpoch > 0 {
			restore = func() (err error) {
				at, err = c.ladder(rep)
				return err
			}
		}
		if err := c.relaunch(rep, c.committedEpoch, true, restore); err != nil {
			return err
		}
		c.book(1, at)
	}
	return nil
}

// ladder launches the stopped replica from the buddy in-memory checkpoint
// at the committed epoch (tier 0), else from the newest usable complete
// epoch of the durable tiers, tier after tier. A durable tier keeps one
// copy per compared pair, so either replica launches from replica 0's
// checkpoints there. Each candidate is read back one task at a time in
// dense (node, task) order and abandoned at the first failed Get
// (runtime.Machine.RestartReplicaFromStore): the restart path, like commit
// and compare, goes exclusively through stores.
func (c *Controller) ladder(rep int) (*candidate, error) {
	committed := c.committedEpoch
	launch := func(cd candidate) error { return c.machine.RestartReplicaFromStore(rep, cd.epoch, cd.st, 0) }
	hot := candidate{st: c.store, epoch: committed, depth: c.behind(committed)}
	err0 := c.machine.RestartReplicaFromStore(rep, committed, c.store)
	if err0 == nil {
		return &hot, nil
	}
	if len(c.tiers) == 0 {
		// Wrap err0 too: an at-rest corruption verdict (ckptstore.ErrCorrupt)
		// must stay visible to errors.Is even when the ladder has no lower
		// tier — detection succeeded even though recovery cannot.
		return nil, fmt.Errorf("%w: replica %d: committed epoch %d unusable (%w) and no durable tier configured",
			ErrUnrecoverable, rep, committed, err0)
	}
	c.mark(trace.Restart, fmt.Sprintf("replica %d escalating past committed epoch %d: %v", rep, committed, err0))
	// Below tier 0: each tier's complete epochs at or below the committed
	// one, newest first. Every tier's in-flight writes settle first so its
	// index is complete; a corrupt or incomplete epoch is skipped, which is
	// also all a dark or flaky remote can add here.
	var cands []candidate
	for _, t := range c.tiers {
		t.wg.Wait()
		epochs := t.index()
		for i := len(epochs) - 1; i >= 0; i-- {
			if e := epochs[i]; e <= committed {
				cands = append(cands, candidate{st: t.store, name: t.name, epoch: e, rung: t.rung(e, committed), depth: c.behind(e)})
			}
		}
	}
	at, err := c.walk(fmt.Sprintf("replica %d", rep), cands, launch)
	if at == nil {
		if err == nil {
			err = err0 // no durable tier holds an epoch yet
		}
		return nil, fmt.Errorf("%w: replica %d: recovery ladder exhausted (last tier error: %v)", ErrUnrecoverable, rep, err)
	}
	c.mark(trace.Restart, fmt.Sprintf("replica %d restored from %s epoch %d (tier %d, rollback depth %d)",
		rep, at.name, at.epoch, at.rung, at.depth))
	return at, nil
}

// adopt relaunches both replicas from cd, a durable store's copy of an
// epoch: one checkpoint per compared pair (pairKey). Fetch before touch:
// every task checkpoint must read back intact (the store re-verifies the
// payload root) before either replica stops, so an incomplete or corrupt
// epoch fails with touched=false and the job keeps running. The fetches are
// independent, so they run through stages.Run at the capture stage's width;
// the first error in dense (node, task) order wins whatever the width. Each
// verified checkpoint is cloned once — a memory-backed durable tier hands
// out its own buffers — and the clone is mirrored into the hot store under
// both replicas' keys at the same epoch, by reference, as
// recoveryCheckpoint's mirror does (Pool.Put dedupes the pointer on
// eviction): the ladder's tier-0 copy for later failures. The replicas
// relaunch from there.
func (c *Controller) adopt(cd candidate) (touched bool, err error) {
	cks := make([]*ckptstore.Checkpoint, len(c.outcomes))
	outcomes := make([]stages.Outcome, len(cks))
	stages.Run(outcomes, c.stageWidths().capture, func(i int) error {
		k := c.pairKey(i, cd.epoch)
		ck, gerr := cd.st.Get(k)
		if gerr != nil {
			return fmt.Errorf("durable checkpoint n%d/t%d@%d: %w", k.Node, k.Task, cd.epoch, gerr)
		}
		cks[i] = ck.Clone()
		return nil
	})
	if ferr := stages.FirstFailure(outcomes); ferr != nil {
		return false, ferr
	}
	for i, ck := range cks {
		for k := c.pairKey(i, cd.epoch); k.Replica < 2; k.Replica++ {
			if perr := c.store.Put(k, ck); perr != nil {
				return false, fmt.Errorf("mirror into hot store: %w", perr)
			}
		}
	}
	for rep := 0; rep < 2; rep++ {
		if rerr := c.relaunch(rep, cd.epoch, false, func() error {
			return c.machine.RestartReplicaFromStore(rep, cd.epoch, c.store)
		}); rerr != nil {
			return true, fmt.Errorf("restart replica %d from epoch %d: %w", rep, cd.epoch, rerr)
		}
	}
	return true, nil
}

// resume implements Config.ResumeEpochs: a warm start from the newest
// usable durable epoch, walking to older candidates when one turns out
// corrupt or incomplete — the recovery ladder's escalation applied at job
// start, against state a previous process left behind. Run calls it after
// the machine starts (cold, factory state) and before the event loop; when
// every candidate is unusable the job falls back to a cold start.
func (c *Controller) resume() error {
	if len(c.cfg.ResumeEpochs) == 0 {
		return nil
	}
	epochs := slices.Clone(c.cfg.ResumeEpochs)
	slices.Sort(epochs)
	epochs = slices.Compact(epochs)
	newest := epochs[len(epochs)-1]
	// Burn the whole candidate range: fresh captures must never collide
	// with stray mirrored keys from a failed adoption attempt.
	c.epochSeq = newest
	// The newest candidate stands in for the committed epoch; each newer
	// one skipped is an epoch of rework.
	cands := make([]candidate, len(epochs))
	for i, e := range epochs {
		depth := len(epochs) - 1 - i
		cands[depth] = candidate{st: c.flush.store, name: c.flush.name, epoch: e, rung: c.flush.rung(e, newest), depth: depth}
	}
	// A failed adoption may leave replicas stopped; older candidates (or the
	// cold fallback) relaunch them.
	at, _ := c.walk("resume", cands, func(cd candidate) error {
		_, err := c.adopt(cd)
		return err
	})
	if at == nil {
		// Every candidate unusable: cold start. Adoption attempts may have
		// left replicas stopped, so relaunch both from factory state
		// explicitly.
		c.mark(trace.Restart, fmt.Sprintf("resume: all %d durable epoch(s) unusable, cold start", len(epochs)))
		for rep := 0; rep < 2; rep++ {
			if err := c.relaunch(rep, 0, false, nil); err != nil {
				return fmt.Errorf("core: cold-start fallback: %w", err)
			}
		}
		return nil
	}
	c.committedEpoch = at.epoch
	c.commitLog = append(c.commitLog, at.epoch)
	c.stats.ResumedEpoch = at.epoch
	c.book(0, at)
	c.prog.committedEpoch.Store(at.epoch)
	c.prog.resumedEpoch.Store(at.epoch)
	// Seed the flush tier's index with the epochs at or below the resume
	// point: a later buddy-pair double fault can then land on the
	// pre-resume flushes.
	c.flush.mu.Lock()
	c.flush.epochs = slices.Clone(epochs[:len(epochs)-at.depth])
	c.flush.mu.Unlock()
	c.mark(trace.Restart, fmt.Sprintf("warm resume from durable epoch %d (tier %d, %d newer epoch(s) skipped)", at.epoch, at.rung, at.depth))
	return nil
}
