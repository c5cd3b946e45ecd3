package runtime

import (
	"fmt"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/pup"
)

// Ctx is the execution context handed to a Program's Run method. A Ctx is
// bound to one incarnation of one task: after a rollback or node
// replacement a fresh Ctx is created for the new incarnation.
type Ctx struct {
	m    *Machine
	slot *taskSlot
	addr Addr

	// Incarnation-scoped snapshot.
	inc   *incarnation
	epoch uint64
}

// Addr returns the task's logical address.
func (c *Ctx) Addr() Addr { return c.addr }

// TasksPerNode returns the task count per node.
func (c *Ctx) TasksPerNode() int { return c.m.cfg.TasksPerNode }

// NumTasks returns the total task count of the replica.
func (c *Ctx) NumTasks() int { return c.m.cfg.NodesPerReplica * c.m.cfg.TasksPerNode }

// GlobalTask returns the task's dense index within its replica:
// node*TasksPerNode + task.
func (c *Ctx) GlobalTask() int { return c.addr.Node*c.m.cfg.TasksPerNode + c.addr.Task }

// AddrOfGlobal returns the logical address of a dense task index within the
// same replica.
func (c *Ctx) AddrOfGlobal(g int) Addr {
	return Addr{Replica: c.addr.Replica, Node: g / c.m.cfg.TasksPerNode, Task: g % c.m.cfg.TasksPerNode}
}

// phys returns the physical node currently backing the task's logical node.
func (c *Ctx) phys() *physNode { return c.m.physFor(c.addr.Replica, c.addr.Node) }

// checkLive returns the error that should interrupt this incarnation, if
// any: machine stop, rollback, or node death (in that order of precedence).
// It runs several times per application iteration and takes no lock:
// everything it reads is published atomically (DESIGN.md §17).
func (c *Ctx) checkLive() error {
	switch {
	case c.m.stopped.fired():
		return ErrStopped
	case c.inc.abort.Load():
		return ErrRollback
	case !c.phys().alive() || c.slot.cur.Load() != c.inc:
		return ErrKilled
	}
	return nil
}

// Send delivers an asynchronous message to another task in the same
// replica. Messages to dead nodes vanish (fail-stop). The data value is
// shared by reference, which makes a send a hand-off: whatever the payload
// points at belongs to the receiver until the receiver has shown, by a later
// message of its own, that it is done reading it. A sender that recycles
// payload buffers must be able to name that message (the apps' two-deep
// rings wait for the neighbour's payload of the next iteration, DESIGN.md
// §18); one that cannot must send a fresh copy. Send only returns an error
// when the *sender* can no longer run.
func (c *Ctx) Send(to Addr, tag int, data any) error {
	if to.Replica != c.addr.Replica {
		return fmt.Errorf("runtime: cross-replica application sends are not allowed (%v -> %v)", c.addr, to)
	}
	if err := c.checkLive(); err != nil {
		return err
	}
	if h := c.m.cfg.Chaos; h != nil {
		// Fire outside the machine lock: hooks may take machine-level
		// actions (kill a node) that re-enter the lock. The hook may
		// replace the payload — a bit flip in flight (§6.1 applied to the
		// message path instead of checkpoint data).
		info := point.Info{Replica: to.Replica, Node: to.Node, Task: to.Task, Payload: data}
		h.Fire(point.RuntimeDeliver, &info)
		data = info.Payload
	}
	if to.Node < 0 || to.Node >= c.m.cfg.NodesPerReplica || to.Task < 0 || to.Task >= c.m.cfg.TasksPerNode {
		return fmt.Errorf("runtime: send to invalid address %v", to)
	}
	// Stale incarnation? Drop output from the walking dead.
	if c.m.epoch[c.addr.Replica].Load() != c.epoch {
		return ErrRollback
	}
	if mc := c.m.cfg.MsgChecker; mc != nil {
		// Fold at the send side, like the message-comparison schemes of
		// §3.3: corruption is observable the moment it leaves the task.
		mc.observe(c.addr, tag, data)
	}
	if !c.m.physFor(to.Replica, to.Node).alive() {
		return nil // silently lost, like a message into a crashed node
	}
	// No lock: the destination's incarnation was published before any task
	// of this replica's generation was launched (startReplicaLocked), and the
	// next generation cannot be published while this sender is still running
	// (StopReplica waits for it).
	dst := c.m.slots[to.Replica][to.Node][to.Task].cur.Load()
	if dst == nil {
		return nil
	}
	if !dst.mbox.push(Message{From: c.addr, Tag: tag, Data: data, epoch: c.epoch}, c.m.mailboxCap) {
		// A full mailbox means the application violated the bounded
		// outstanding-message discipline; surface it loudly.
		return fmt.Errorf("runtime: mailbox overflow at %v (cap %d)", to, c.m.mailboxCap)
	}
	return nil
}

// Recv blocks for the next message from any source. It returns ErrKilled /
// ErrRollback / ErrStopped when the incarnation must end.
//
// A queued message is delivered even to an interrupted incarnation, as it
// always was. No wakeup is lost: the interrupt flag is read, and waiting set,
// under the mailbox lock, and both a sender and an interrupt publish (append
// under the lock; set the flag) before they drop the token, so whichever of
// them this incarnation missed leaves a token for the park below.
func (c *Ctx) Recv() (Message, error) {
	b := &c.inc.mbox
	for {
		b.mu.Lock()
		if b.head < len(b.q) {
			msg := b.popLocked()
			b.mu.Unlock()
			if msg.epoch == c.epoch {
				return msg, nil
			}
			continue // stale epoch: discard
		}
		if c.inc.intr.Load() {
			b.mu.Unlock()
			return Message{}, c.interrupted()
		}
		b.waiting = true
		b.mu.Unlock()
		<-b.wake
	}
}

// interrupted names the reason the incarnation's interrupt fired. The node
// that died under it may already have been re-routed to a live spare by the
// time the task looks, which leaves checkLive nothing to report: that was a
// kill.
func (c *Ctx) interrupted() error {
	if err := c.checkLive(); err != nil {
		return err
	}
	return ErrKilled
}

// Progress reports that the task finished iteration iter and yields to the
// gate, blocking while the checkpoint protocol holds the task (§2.2). It
// returns ErrKilled / ErrRollback / ErrStopped when the incarnation must
// end instead of continuing.
//
// Contract: the task must advance its pup-visible state to the next
// iteration BEFORE calling Progress, so that a checkpoint captured while it
// is parked here resumes with the next iteration rather than redoing the
// reported one.
func (c *Ctx) Progress(iter int) error {
	if err := c.checkLive(); err != nil {
		return err
	}
	if h := c.m.cfg.Chaos; h != nil {
		h.Fire(point.RuntimeProgress, &point.Info{Replica: c.addr.Replica, Node: c.addr.Node, Task: c.addr.Task, Iter: iter})
	}
	waitCh := c.m.cfg.Gate.Report(c.addr, iter)
	if waitCh == nil {
		return nil
	}
	select {
	case <-waitCh:
		return c.checkLive()
	case <-c.inc.mbox.wake:
		// Outside Recv the only token is an interrupt's.
		return c.interrupted()
	}
}

// startReplicaLocked launches a fresh incarnation of every task of the
// replica, in two phases: every incarnation is published before any goroutine
// starts. That is Send's start-up atomicity — a task whose first statement is
// a Send always finds its neighbour's mailbox, with no lock on the send path.
// The machine write lock must be held.
func (m *Machine) startReplicaLocked(rep int) {
	ctxs := make([]*Ctx, 0, m.cfg.NodesPerReplica*m.cfg.TasksPerNode)
	for _, node := range m.slots[rep] {
		for _, s := range node {
			ctxs = append(ctxs, m.publishSlotLocked(s))
		}
	}
	for _, ctx := range ctxs {
		m.launch(ctx)
	}
}

// publishSlotLocked makes a fresh incarnation the slot's current one and
// returns its context; launch starts it. The machine write lock must be held.
//
// Kill and halt interrupt the incarnations they find current after setting
// their latch; this stores the incarnation and then reads those latches. Of a
// concurrent pair at least one sees the other, so an incarnation born onto a
// dead node or into a stopped machine is born interrupted.
func (m *Machine) publishSlotLocked(s *taskSlot) *Ctx {
	inc := &incarnation{done: make(chan struct{})}
	inc.mbox.wake = make(chan struct{}, 1)
	s.mu.Lock()
	s.completed = false
	s.mu.Unlock()
	s.cur.Store(inc)
	if m.stopped.fired() || !m.physFor(s.addr.Replica, s.addr.Node).alive() {
		inc.interrupt()
	}
	return &Ctx{
		m:     m,
		slot:  s,
		addr:  s.addr,
		inc:   inc,
		epoch: m.epoch[s.addr.Replica].Load(),
	}
}

// launch starts the goroutine of a published incarnation.
func (m *Machine) launch(ctx *Ctx) {
	s := ctx.slot
	s.mu.Lock()
	prog := s.prog
	s.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		// Last of all: whoever waits on done (StopReplica) may assume the
		// incarnation has nothing left to report to the gate or the machine.
		defer close(ctx.inc.done)
		err := prog.Run(ctx)
		s.mu.Lock()
		if err == nil && s.cur.Load() == ctx.inc { // still the current incarnation
			s.completed = true
		}
		s.mu.Unlock()
		switch err {
		case nil:
			m.cfg.Gate.Done(s.addr)
			m.recordCompletion()
		case ErrKilled, ErrRollback, ErrStopped:
			// Expected terminations; the controller owns recovery.
		default:
			m.recordAppError(fmt.Errorf("task %v: %w", s.addr, err))
		}
	}()
}

// PackTask serializes the current state of a task. The caller must
// guarantee the task is quiescent: parked in Progress by the gate,
// completed, or its replica stopped. This is the "local checkpoint" of
// §2.1.
func (m *Machine) PackTask(addr Addr) ([]byte, error) {
	m.mu.RLock()
	s := m.slots[addr.Replica][addr.Node][addr.Task]
	m.mu.RUnlock()
	s.mu.Lock()
	prog := s.prog
	s.mu.Unlock()
	return pup.Pack(prog)
}

// captureTaskInto packs a task's state and chunks/checksums it into a
// checkpoint, routing through the incremental dirty path when possible:
// if the program tracks writes (pup.DirtyTracker, armed) and the slot
// retains the previous epoch's capture, only dirty elements are re-encoded
// and only dirty chunks re-checksummed (clean sums spliced from the
// previous capture). When the caller additionally enables patch capture
// and the slot still holds its two-epochs-ago buffer, clean bytes are not
// even copied — the old buffer is patched in place with the union of the
// last two dirty sets (pup.PackDirtyPatch); otherwise clean bytes are
// memcpy'd from the previous stream (pup.PackDirtyInto). Untracked or
// blind programs, fresh incarnations, and structural changes all degrade
// to the ordinary full pack — correctness never depends on tracking.
// Quiescence rules match PackTask.
//
// pool, if non-nil, supplies the retired checkpoint a non-patching capture
// packs into. The resulting checkpoint is retained as the slot's next splice
// base, the slot's size hint is refreshed, and the tracker (if any) is
// re-armed.
func (m *Machine) captureTaskInto(addr Addr, pool *ckptstore.Pool, hint, chunkSize, chunkWorkers int, patch bool) (*ckptstore.Checkpoint, error) {
	m.mu.RLock()
	s := m.slots[addr.Replica][addr.Node][addr.Task]
	m.mu.RUnlock()
	s.mu.Lock()
	prog := s.prog
	prev := s.lastCap
	scratch := s.dirtyScratch
	base := s.patchCap
	stale := s.patchDirty
	union := s.patchScratch
	s.mu.Unlock()

	var prevBytes []byte
	var dirty []pup.Range
	tracker, _ := prog.(pup.DirtyTracker)
	tracked := false
	if tracker != nil && prev != nil {
		if rs, ok := tracker.DirtyRanges(scratch); ok {
			dirty, tracked = rs, true
			prevBytes = prev.Bytes()
		}
	}

	var res pup.DirtyPackResult
	var err error
	var into *ckptstore.Checkpoint // the capture target: its struct, buffer and Sums are reused
	if tracked && patch && base != nil && base != prev && base.Len() == prev.Len() && !base.Borrowed() {
		// Patch in place: base still holds the stream from two captures
		// ago, which differs from prev only on stale (the previous
		// capture's dirty set). Re-encoding stale ∪ dirty on top of it
		// yields the current stream without touching a single clean byte.
		// base left the store when the previous epoch committed, and its
		// Retained flag kept the pool from handing it to anyone else. A
		// base a durable tier writer still borrows (its epoch is still
		// being flushed) is left alone: the capture packs into a pooled
		// or fresh buffer below and prev becomes the next base.
		union = append(union[:0], dirty...)
		union = append(union, stale...)
		res, err = pup.PackDirtyPatch(prog, base.Scratch(), prevBytes, dirty, union)
		into = base
	} else {
		// Only this branch packs into a pooled buffer, so only it draws one:
		// the patch path above self-recycles the slot's own base.
		var buf []byte
		if pool != nil {
			into = pool.Get(hint)
			buf = into.Scratch()
			if into == prev {
				// The pool handed back the very checkpoint we would splice
				// from (possible only if a caller evicted the epoch the slot
				// still trusts); packing into its buffer while reading it
				// would corrupt both. Fall back to a full pack.
				prev, prevBytes, dirty, tracked = nil, nil, nil, false
			}
		}
		if cap(buf) == 0 && hint > 0 {
			// No pool, or a drained pool handing back an empty struct
			// (nothing evicted yet, or every retiree retained by the patch
			// ladder): seed the buffer from the size hint so single-pass
			// packing and the dirty splice still engage. (The patch path
			// above never needs one: zeroing a state-sized buffer would
			// cost more than the patch spends packing.)
			buf = make([]byte, 0, hint)
		}
		res, err = pup.PackDirtyInto(prog, buf, prevBytes, dirty)
	}
	if err != nil {
		return nil, err
	}
	if res.Fast {
		m.packFast.Add(1)
	} else {
		m.packSlow.Add(1)
	}
	var ck *ckptstore.Checkpoint
	if res.Spliced {
		var reusedChunks int
		ck, reusedChunks = ckptstore.CaptureDirtyInto(into, res.Data, chunkSize, chunkWorkers, prev, res.Dirty)
		m.dirtyChunksReused.Add(int64(reusedChunks))
		m.dirtyChunksPacked.Add(int64(ck.NumChunks() - reusedChunks))
		m.dirtyBytesReused.Add(int64(res.Reused))
	} else {
		ck = ckptstore.CaptureInto(into, res.Data, chunkSize, chunkWorkers)
		if tracked {
			// A tracked capture that could not splice still counts its
			// chunks as packed, so the dirty ratio reflects rebases.
			m.dirtyChunksPacked.Add(int64(ck.NumChunks()))
		}
	}

	keep := dirty
	if res.Spliced {
		keep = res.Dirty
	}
	s.mu.Lock()
	s.sizeHint = len(res.Data)
	s.lastCap = ck
	if keep != nil && cap(keep) > cap(s.dirtyScratch) {
		s.dirtyScratch = keep[:0]
	}
	if union != nil {
		s.patchScratch = union[:0]
	}
	if patch && tracked && res.Spliced && prev != nil {
		// prev becomes the patch base for the NEXT capture: by then the
		// commit protocol will have evicted it from the store, and the
		// Retained flag keeps the pool from recycling its buffer into
		// another task's capture in the meantime. patchDirty records
		// exactly how the new capture differs from it.
		prev.SetRetained(true)
		s.patchCap = prev
		s.patchDirty = append(s.patchDirty[:0], res.Dirty...)
	} else {
		// Without a spliced capture there is no trustworthy delta between
		// this stream and the previous one, so patching two epochs ahead
		// would splice stale bytes. Start the ladder over.
		s.patchCap = nil
		s.patchDirty = s.patchDirty[:0]
	}
	s.mu.Unlock()
	if tracker != nil {
		// The task is quiescent for the duration of the capture, so
		// re-arming the tracker here cannot race application marks.
		tracker.ResetDirty()
	}
	return ck, nil
}

// sizeHint returns the task's packed size at its last capture (0 before
// the first one).
func (m *Machine) sizeHint(addr Addr) int {
	m.mu.RLock()
	s := m.slots[addr.Replica][addr.Node][addr.Task]
	m.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sizeHint
}

// CheckTask compares the live state of a task byte for byte against a
// packed remote checkpoint using the checker PUPer (§4.1). Quiescence
// rules match PackTask.
func (m *Machine) CheckTask(addr Addr, remote []byte) (pup.CheckResult, error) {
	m.mu.RLock()
	s := m.slots[addr.Replica][addr.Node][addr.Task]
	m.mu.RUnlock()
	s.mu.Lock()
	prog := s.prog
	s.mu.Unlock()
	return pup.Check(prog, remote, 0)
}

// CorruptTask exposes the live program state of a task to an injector
// function — the SDC injection hook (§6.1: flip a bit "in the user data
// that will be checkpointed"). The same quiescence rules as PackTask apply
// if inject mutates state; tests may also call it on running tasks whose
// programs tolerate racy corruption.
func (m *Machine) CorruptTask(addr Addr, inject func(pup.Pupable)) {
	m.mu.RLock()
	s := m.slots[addr.Replica][addr.Node][addr.Task]
	m.mu.RUnlock()
	s.mu.Lock()
	prog := s.prog
	s.mu.Unlock()
	inject(prog)
}

// StopReplica forces every task incarnation of the replica to exit and
// waits until they have. The replica's epoch advances, so any in-flight
// message from the old incarnations is discarded on receipt.
func (m *Machine) StopReplica(rep int) {
	m.mu.Lock()
	m.epoch[rep].Add(1)
	var incs []*incarnation
	var completedNow int
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		for t := 0; t < m.cfg.TasksPerNode; t++ {
			s := m.slots[rep][n][t]
			if inc := s.cur.Load(); inc != nil {
				incs = append(incs, inc)
			}
			s.mu.Lock()
			if s.completed {
				completedNow++
			}
			s.mu.Unlock()
		}
	}
	// Tasks that had completed are about to be rolled back; they no
	// longer count as completed. Re-arm the done channel if it had fired.
	m.completed -= completedNow
	if completedNow > 0 && m.doneClosed {
		m.doneCh = make(chan struct{})
		m.doneClosed = false
	}
	m.mu.Unlock()
	for _, inc := range incs {
		inc.abort.Store(true)
		inc.interrupt()
	}
	// Wait for the incarnations to drain.
	for _, inc := range incs {
		<-inc.done
	}
}

// RestartReplica restores every task of the replica from the supplied
// checkpoints (indexed [node][task]) and launches fresh incarnations. The
// replica must be quiescent (StopReplica). Passing a nil checkpoint for a
// task restarts it from factory state.
func (m *Machine) RestartReplica(rep int, ckpts [][][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ckpts) != m.cfg.NodesPerReplica {
		return fmt.Errorf("runtime: checkpoint set has %d nodes, want %d", len(ckpts), m.cfg.NodesPerReplica)
	}
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		if len(ckpts[n]) != m.cfg.TasksPerNode {
			return fmt.Errorf("runtime: node %d checkpoint set has %d tasks, want %d", n, len(ckpts[n]), m.cfg.TasksPerNode)
		}
	}
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		for t := 0; t < m.cfg.TasksPerNode; t++ {
			s := m.slots[rep][n][t]
			fresh := m.cfg.Factory(s.addr)
			if ck := ckpts[n][t]; ck != nil {
				if err := pup.Unpack(ck, fresh); err != nil {
					return fmt.Errorf("runtime: restore %v: %w", s.addr, err)
				}
			}
			s.mu.Lock()
			s.prog = fresh
			// The restored payload length is the task's true packed size:
			// a task restored from an older epoch (or folded onto a
			// survivor) must not keep its pre-failure hint, which would
			// push the first post-recovery capture through the overflow
			// slow path. The splice base is dropped for the same reason —
			// a fresh incarnation is blind until its next capture.
			s.sizeHint = len(ckpts[n][t])
			s.dropCaptureBasesLocked()
			s.mu.Unlock()
		}
	}
	m.startReplicaLocked(rep)
	return nil
}

// ResetCaptureBases drops every task slot's splice and patch bases in the
// replica (lastCap, patchCap, patchDirty), as RestartReplica does, without
// touching the live state: the replica's next capture is a full pack. Call
// it when a replica was captured for a round that then did not commit and
// the replica keeps running — its slots would otherwise take the burnt
// capture as the splice base and the committed epoch's checkpoint, still
// live in the store, as the buffer to patch in place. The replica must not
// be captured concurrently.
func (m *Machine) ResetCaptureBases(rep int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		for t := 0; t < m.cfg.TasksPerNode; t++ {
			s := m.slots[rep][n][t]
			s.mu.Lock()
			s.dropCaptureBasesLocked()
			s.mu.Unlock()
		}
	}
}

// dropCaptureBasesLocked forgets the slot's capture ladder: the next
// capture is blind. The caller holds s.mu.
func (s *taskSlot) dropCaptureBasesLocked() {
	s.lastCap = nil
	s.patchCap = nil
	s.patchDirty = s.patchDirty[:0]
}
