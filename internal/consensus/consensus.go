// Package consensus implements ACR's automatic checkpoint decision protocol
// (§2.2): the mechanism that turns "checkpoint now, please" into a globally
// consistent cut without synchronizing the application.
//
// Every task periodically reports its progress (Phase 1). When a checkpoint
// is requested, tasks that are at the progress frontier pause as they
// report, while stragglers keep running (Phase 2); once the frontier
// stabilizes, its value is the checkpoint iteration (Phase 3), every task
// runs exactly up to it and pauses, and as each replica's participants are
// all parked that replica's checkpoint can be taken (Phase 4) — the two
// replicas exchange no application messages, so neither needs to wait for
// the other to be captured. Because a task only sends messages
// for iteration k while *executing* iteration k, a cut at which every task
// has finished iteration K and not started K+1 has no in-flight messages —
// the hang scenario described in §2.2 cannot occur.
//
// The Coordinator implements runtime.Gate, so plugging it into a Machine is
// all that is needed to steer an application.
package consensus

import (
	"fmt"
	"sync"
	"sync/atomic"

	"acr/internal/runtime"
)

// Phase is the protocol state.
type Phase int

// Protocol phases (named after Figure 3).
const (
	// Idle: progress is recorded, nobody pauses.
	Idle Phase = iota
	// Deciding: a checkpoint was requested; frontier tasks pause as they
	// report while the maximum progress is established (Phases 2-3 of
	// Figure 3 merge here because the tracker sees all reports).
	Deciding
	// Ready: every participant is parked at the checkpoint iteration
	// (Phase 4) and every replica in scope has been handed to the caller at
	// it; the caller may finish capturing state, then Release.
	Ready
)

func (p Phase) String() string {
	switch p {
	case Idle:
		return "idle"
	case Deciding:
		return "deciding"
	case Ready:
		return "ready"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Scope selects which replicas participate in a round.
type Scope [2]bool

// BothReplicas is the normal periodic-checkpoint scope.
var BothReplicas = Scope{true, true}

// OnlyReplica returns a scope containing a single replica (used by the
// medium and weak recovery schemes, which checkpoint just the healthy
// replica).
func OnlyReplica(rep int) Scope {
	var s Scope
	s[rep] = true
	return s
}

// Handoff is one replica's readiness: every task of the replica is parked
// at Target (or done). From the moment it is delivered the replica belongs
// to the caller — the coordinator does not unpark it until the caller hands
// it back (HandBack) or the round ends (Release).
type Handoff struct {
	Replica int
	Target  int
}

// Coordinator tracks progress and coordinates checkpoint cuts. It is safe
// for concurrent use and implements runtime.Gate.
//
// Progress lives in a dense table of atomics indexed by (replica, node,
// task), so a report outside a round takes no lock: Report stores the
// task's progress and THEN loads the deciding flag; Request stores the flag
// and THEN reads the table. The atomics are sequentially consistent, so at
// least one side sees the other: either the reporter sees the flag and takes
// the round's mutex, or Request sees the report and the cut lands at least
// one past it — the reporter parks on a later report, never beyond target.
// Everything else (the round's state) is guarded by mu.
type Coordinator struct {
	nodesPerReplica int
	tasksPerNode    int

	last     []atomic.Int64 // last reported iteration per task; -1 = none
	deciding atomic.Bool    // phase == Deciding, published for Report's fast path

	mu        sync.Mutex
	phase     Phase
	scope     Scope
	target    int             // frontier / decided checkpoint iteration
	done      []bool          // task completed the whole job
	parked    []chan struct{} // non-nil while the task is parked: at target, or at handedAt when handed
	quiescent [2]int          // per replica: tasks that are done or parked
	// handed[rep] is true from the replica's Handoff until HandBack or
	// Release; handedAt is the target it was handed at. A handed replica's
	// tasks stay parked even when an escalation raises the target past
	// handedAt — it is being captured there.
	handed   [2]bool
	handedAt [2]int
	readyCh  chan Handoff
}

// New returns a coordinator for a machine with the given shape.
func New(nodesPerReplica, tasksPerNode int) *Coordinator {
	n := 2 * nodesPerReplica * tasksPerNode
	c := &Coordinator{
		nodesPerReplica: nodesPerReplica,
		tasksPerNode:    tasksPerNode,
		last:            make([]atomic.Int64, n),
		done:            make([]bool, n),
		parked:          make([]chan struct{}, n),
	}
	for i := range c.last {
		c.last[i].Store(-1)
	}
	return c
}

// index is the task's position in the dense tables.
func (c *Coordinator) index(addr runtime.Addr) int {
	return (addr.Replica*c.nodesPerReplica+addr.Node)*c.tasksPerNode + addr.Task
}

// replicaRange returns the half-open index range of a replica's tasks.
func (c *Coordinator) replicaRange(rep int) (lo, hi int) {
	per := c.nodesPerReplica * c.tasksPerNode
	return rep * per, (rep + 1) * per
}

// Phase returns the current protocol phase.
func (c *Coordinator) Phase() Phase {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.phase
}

// MaxProgress returns the maximum reported progress within the scope (-1 if
// nothing was reported).
func (c *Coordinator) MaxProgress(scope Scope) int {
	m := -1
	for rep := 0; rep < 2; rep++ {
		if !scope[rep] {
			continue
		}
		lo, hi := c.replicaRange(rep)
		for i := lo; i < hi; i++ {
			m = max(m, int(c.last[i].Load()))
		}
	}
	return m
}

// Report implements runtime.Gate. Tasks report the iteration they just
// finished (with state already advanced per the runtime contract). Outside a
// round this is one store and one load; the order of the two is what the
// type comment's argument rests on.
func (c *Coordinator) Report(addr runtime.Addr, iter int) <-chan struct{} {
	i := c.index(addr)
	c.last[i].Store(int64(iter))
	if !c.deciding.Load() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != Deciding || !c.scope[addr.Replica] {
		return nil
	}
	if iter < c.target {
		return nil // straggler: run on toward the cut
	}
	// Frontier task: park it. A report beyond the current frontier
	// raises the target and releases everyone parked below it — every
	// parked task of a replica not yet handed over, since those only ever
	// park at the target. A handed replica stays parked below the new
	// target until the caller hands it back.
	if iter > c.target {
		c.target = iter
		for rep := 0; rep < 2; rep++ {
			if !c.handed[rep] {
				c.unparkLocked(rep)
			}
		}
	}
	ch := make(chan struct{})
	c.setLocked(i, c.done[i], ch)
	c.checkReadyLocked()
	return ch
}

// setLocked is the only writer of done and parked; it keeps the per-replica
// quiescent count (done OR parked, each task once) in step.
func (c *Coordinator) setLocked(i int, done bool, parked chan struct{}) {
	was := c.done[i] || c.parked[i] != nil
	c.done[i], c.parked[i] = done, parked
	if is := done || parked != nil; is != was {
		rep := i / (c.nodesPerReplica * c.tasksPerNode)
		if is {
			c.quiescent[rep]++
		} else {
			c.quiescent[rep]--
		}
	}
}

// unparkLocked resumes every parked task of a replica.
func (c *Coordinator) unparkLocked(rep int) {
	lo, hi := c.replicaRange(rep)
	for i := lo; i < hi; i++ {
		if ch := c.parked[i]; ch != nil {
			close(ch)
			c.setLocked(i, c.done[i], nil)
		}
	}
}

// Done implements runtime.Gate: the task finished the whole job. Completed
// tasks count as parked for every future cut.
func (c *Coordinator) Done(addr runtime.Addr) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.index(addr)
	c.setLocked(i, true, c.parked[i])
	if c.phase == Deciding {
		c.checkReadyLocked()
	}
}

// Undone clears completion marks for a replica (after it is rolled back).
func (c *Coordinator) Undone(rep int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lo, hi := c.replicaRange(rep)
	for i := lo; i < hi; i++ {
		c.setLocked(i, false, c.parked[i])
	}
}

// ForgetProgress drops recorded progress for a replica (call when rolling
// it back, so stale frontier values do not inflate the next cut).
func (c *Coordinator) ForgetProgress(rep int) {
	lo, hi := c.replicaRange(rep)
	for i := lo; i < hi; i++ {
		c.last[i].Store(-1)
	}
}

// checkReadyLocked hands over every replica in scope whose tasks are all
// quiescent, and moves the round to Ready once every replica in scope is
// handed at the current target. A replica handed below it (an escalation
// overtook its capture) keeps the round Deciding until it is handed back
// and re-parks at the target.
func (c *Coordinator) checkReadyLocked() {
	per := c.nodesPerReplica * c.tasksPerNode
	all := true
	for rep := 0; rep < 2; rep++ {
		if !c.scope[rep] {
			continue
		}
		if !c.handed[rep] && c.quiescent[rep] == per {
			c.handed[rep], c.handedAt[rep] = true, c.target
			// Never blocks: a replica is handed again only after HandBack,
			// which the caller can only issue having received this one, so
			// at most one Handoff per replica is ever buffered.
			c.readyCh <- Handoff{Replica: rep, Target: c.target}
		}
		all = all && c.handed[rep] && c.handedAt[rep] == c.target
	}
	if all {
		c.phase = Ready
		c.deciding.Store(false)
	}
}

// Request begins a checkpoint round over the scope. The returned channel
// delivers one Handoff per replica in scope, each the moment that replica's
// tasks are all parked at the decided checkpoint iteration (Phase 4), in the
// order the replicas get there; it is closed by Release and delivers
// nothing after it. A replica is handed again only after HandBack. Exactly
// one round may be active at a time.
func (c *Coordinator) Request(scope Scope) (<-chan Handoff, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase != Idle {
		return nil, fmt.Errorf("consensus: round already active (phase %v)", c.phase)
	}
	if !scope[0] && !scope[1] {
		return nil, fmt.Errorf("consensus: empty scope")
	}
	c.phase = Deciding
	c.scope = scope
	// Publish the round BEFORE reading the progress table (see the type
	// comment): a report this read misses is one whose reporter sees the
	// flag and waits for mu.
	c.deciding.Store(true)
	// The cut is one past the maximum reported progress. Any task is
	// executing at most (its last report + 1) <= target, so no task is
	// ever stranded beyond the cut waiting for input from a parked
	// neighbour; every participant runs through iteration target —
	// emitting all its messages for iterations <= target on the way —
	// and parks when it reports target. (Tasks must report every
	// iteration; sparse reporting is handled by the escalation path in
	// Report.)
	c.target = c.MaxProgress(scope) + 1
	ch := make(chan Handoff, 2)
	c.readyCh = ch
	// Everything may already be quiescent (all tasks done).
	c.checkReadyLocked()
	return ch, nil
}

// HandBack returns a handed replica to the round: the caller is done with
// it without finishing the round — its capture was overtaken by an
// escalation (Handoff.Target is below the target the other replica was
// handed at). Its tasks parked below the current target resume, and the
// replica is handed again once they park there. A replica not handed, or
// with no round active, is left alone.
func (c *Coordinator) HandBack(rep int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.phase == Idle || !c.handed[rep] {
		return
	}
	c.handed[rep] = false
	// Deciding again before any task resumes, so the resumed tasks' reports
	// take the round's slow path and park at the target.
	c.phase = Deciding
	c.deciding.Store(true)
	if c.handedAt[rep] < c.target {
		c.unparkLocked(rep)
	}
	c.checkReadyLocked()
}

// Release ends the round: every parked task resumes and the coordinator
// returns to Idle. It is also safe to call to abort a round mid-decision
// (e.g. when a failure interrupts checkpointing).
func (c *Coordinator) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for rep := 0; rep < 2; rep++ {
		c.unparkLocked(rep)
	}
	if c.readyCh != nil {
		close(c.readyCh)
		c.readyCh = nil
	}
	c.handed = [2]bool{}
	c.phase = Idle
	c.deciding.Store(false)
}

var _ runtime.Gate = (*Coordinator)(nil)
