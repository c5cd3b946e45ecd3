// Package runtime is an in-process message-driven parallel runtime — the
// Charm++ substitute on which ACR is built (see DESIGN.md).
//
// A Machine hosts two replicas of the same program plus a pool of spare
// nodes. Each replica consists of logical nodes, each hosting a fixed
// number of tasks (chares). Every task runs its own goroutine, owns a
// mailbox, and communicates exclusively by asynchronous messages; there is
// no shared state between tasks, so a replica behaves like a distributed
// machine. Logical nodes map to physical nodes; killing a physical node is
// a fail-stop event (it stops sending and receiving, exactly the paper's
// "no-response" injection), after which the logical node can be remapped to
// a spare.
//
// The runtime provides the mechanisms ACR needs and nothing more:
// asynchronous sends, any-source receives, progress reporting through a
// pluggable gate (the hook for the §2.2 consensus protocol), fail-stop
// kills with timeout-based detection, epoch-tagged rollback, and
// task-state capture through the pup framework.
package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/pup"
)

// Errors returned by task-context operations. Application Run loops should
// simply propagate them; the runtime interprets them.
var (
	// ErrKilled reports that the task's physical node suffered a
	// fail-stop error.
	ErrKilled = errors.New("runtime: node killed")
	// ErrRollback reports that the task's replica is being rolled back;
	// the task will be restarted from a checkpoint.
	ErrRollback = errors.New("runtime: replica rollback")
	// ErrStopped reports that the machine is shutting down.
	ErrStopped = errors.New("runtime: machine stopped")
	// ErrSpareExhausted reports that ReplaceWithSpare found the spare pool
	// empty. Callers branch on it with errors.Is — the recovery ladder
	// folds the failed node onto a survivor (degraded mode) instead of
	// aborting when this is the failure.
	ErrSpareExhausted = errors.New("runtime: spare pool exhausted")
)

// Addr is the logical address of a task.
type Addr struct {
	Replica int // 0 or 1
	Node    int // logical node index within the replica
	Task    int // task index within the node
}

func (a Addr) String() string {
	return fmt.Sprintf("r%d/n%d/t%d", a.Replica, a.Node, a.Task)
}

// Message is an application message between tasks of one replica.
type Message struct {
	From Addr
	Tag  int
	Data any

	epoch uint64
}

// Program is the application code run by every task. Run is invoked on a
// fresh goroutine at job start and again after every rollback, with the
// receiver state freshly restored from a checkpoint; it must inspect its
// state (e.g. an iteration counter) and continue from there. Run returns
// nil on completion and propagates ctx errors otherwise.
type Program interface {
	pup.Pupable
	Run(ctx *Ctx) error
}

// Factory creates the zero-state program for a task.
type Factory func(addr Addr) Program

// Gate observes task progress and may pause tasks — the hook through which
// ACR's automatic checkpoint protocol (§2.2) steers the application.
type Gate interface {
	// Report is called by the task at the end of iteration iter. A nil
	// return lets the task continue immediately ("in most cases, this
	// call returns immediately"); otherwise the task blocks until the
	// channel is closed.
	Report(addr Addr, iter int) <-chan struct{}
	// Done is called when the task's Run returns successfully.
	Done(addr Addr)
}

// NopGate never pauses tasks.
type NopGate struct{}

// Report implements Gate.
func (NopGate) Report(Addr, int) <-chan struct{} { return nil }

// Done implements Gate.
func (NopGate) Done(Addr) {}

// Config describes a machine.
type Config struct {
	// NodesPerReplica is the logical node count of each replica.
	NodesPerReplica int
	// TasksPerNode is the number of tasks hosted by each node.
	TasksPerNode int
	// Spares is the number of spare physical nodes reserved at job launch
	// (§2.1).
	Spares int
	// Factory creates task programs.
	Factory Factory
	// Gate observes progress; nil means NopGate.
	Gate Gate
	// HeartbeatInterval is the failure detector's tick period;
	// HeartbeatTimeout is the silence after which the detector declares a
	// node dead. A live node always heartbeats, so the silence starts at the
	// node's kill. Zero values disable detection (failures must then be
	// observed by the caller directly).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// MsgChecker, if non-nil, folds every outgoing message into a
	// per-task stream checksum for message-based SDC detection — the
	// §3.3 alternative, provided as a comparative baseline.
	MsgChecker *MsgChecker
	// Chaos, if non-nil, receives fault-injection point firings at message
	// delivery (point.RuntimeDeliver, payload replaceable), progress
	// reports (point.RuntimeProgress), and each detector tick reaching a
	// live node (point.RuntimeHeartbeat). See internal/chaos.
	Chaos point.Hook
}

func (c *Config) validate() error {
	switch {
	case c.NodesPerReplica <= 0:
		return fmt.Errorf("runtime: NodesPerReplica must be positive")
	case c.TasksPerNode <= 0:
		return fmt.Errorf("runtime: TasksPerNode must be positive")
	case c.Spares < 0:
		return fmt.Errorf("runtime: negative spare count")
	case c.Factory == nil:
		return fmt.Errorf("runtime: Factory is required")
	}
	if c.Gate == nil {
		c.Gate = NopGate{}
	}
	return nil
}

// latch is a one-shot event with two faces: an atomic flag for whoever polls
// it (checkLive, every iteration) and a closed channel for whoever blocks on
// it (Wait and the detector, on Machine.stopped). fire is idempotent.
type latch struct {
	set atomic.Bool
	ch  chan struct{}
}

func newLatch() latch { return latch{ch: make(chan struct{})} }

func (l *latch) fire() {
	if l.set.CompareAndSwap(false, true) {
		close(l.ch)
	}
}

func (l *latch) fired() bool { return l.set.Load() }

// physNode is one physical node. Fail-stop is modelled by killedAt: nil
// while the node lives, the instant of its kill once it is dead. A live node
// always heartbeats, so that instant is also when its silence began.
type physNode struct {
	id       int
	killedAt atomic.Pointer[time.Time]
}

// kill fail-stops the node; the first kill's instant is the one kept.
func (n *physNode) kill() {
	now := time.Now()
	n.killedAt.CompareAndSwap(nil, &now)
}

func (n *physNode) alive() bool { return n.killedAt.Load() == nil }

// silentFor returns how long the node has been silent at now: zero while it
// lives.
func (n *physNode) silentFor(now time.Time) time.Duration {
	if t := n.killedAt.Load(); t != nil {
		return now.Sub(*t)
	}
	return 0
}

// mailbox is a task incarnation's message queue: a FIFO that grows with its
// backlog, any number of senders, and the incarnation's goroutine as the only
// receiver. The receiver parks on wake, a one-token channel; a sender drops a
// token only when the receiver announced, under mu, that it is about to park.
type mailbox struct {
	mu sync.Mutex
	// q[head:] are the queued messages. Popped slots are zeroed so a payload
	// is not retained past its delivery.
	q    []Message
	head int
	// waiting is set by the receiver, under mu, when it found the queue empty
	// and is about to park; whoever clears it owes wake one token.
	waiting bool
	wake    chan struct{}
}

// push appends msg and wakes a parked receiver. It reports false, leaving the
// queue as it was, when bound messages are already queued.
func (b *mailbox) push(msg Message, bound int) bool {
	b.mu.Lock()
	if len(b.q)-b.head >= bound {
		b.mu.Unlock()
		return false
	}
	b.q = append(b.q, msg)
	wake := b.waiting
	b.waiting = false
	b.mu.Unlock()
	if wake {
		b.token()
	}
	return true
}

// token makes the receiver's next (or current) park return. It never blocks:
// a token already in the channel serves the same park.
func (b *mailbox) token() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// popLocked removes the oldest message; mu must be held and the queue
// non-empty. The dead prefix is dropped once it outgrows the live half, so a
// queue that never drains completely still does not creep through its array.
func (b *mailbox) popLocked() Message {
	msg := b.q[b.head]
	b.q[b.head] = Message{}
	b.head++
	switch live := len(b.q) - b.head; {
	case live == 0:
		b.q, b.head = b.q[:0], 0
	case b.head > live:
		copy(b.q, b.q[b.head:])
		clear(b.q[live:])
		b.q, b.head = b.q[:live], 0
	}
	return msg
}

// incarnation is one run of a task's goroutine: the mailbox it receives on,
// the one interrupt that ends it, and the channel that reports its end.
type incarnation struct {
	mbox mailbox
	// abort is the rollback flag (StopReplica); checkLive reads it.
	abort atomic.Bool
	// intr says "stop what you are doing and ask checkLive why". Every event
	// that ends an incarnation early sets it — see interrupt for the list —
	// so Recv and a parked Progress watch this alone.
	intr atomic.Bool
	done chan struct{} // closed when the incarnation's goroutine has exited
}

// interrupt forces the incarnation out of Recv or a parked Progress: it sets
// the flag and drops a wake token. Senders drop tokens only for a receiver
// that announced a park, so a token that finds the task anywhere else can
// only be this one. The caller has already stored the reason in the latch
// checkLive reads (physNode.dead, incarnation.abort, Machine.stopped). Fired
// by Kill for every current incarnation routed to the killed node, by
// StopReplica, by halt (Stop, the first application error), and by
// publishSlotLocked for an incarnation published onto a dead node or a
// stopped machine.
func (inc *incarnation) interrupt() {
	inc.intr.Store(true)
	inc.mbox.token()
}

// taskSlot is the runtime home of one logical task. The slot persists
// across rollbacks and node replacements; the goroutine and mailbox are
// replaced each incarnation.
type taskSlot struct {
	addr Addr

	// cur is the current incarnation, nil before Start. It is written only
	// under the machine write lock (Start, RestartReplica) and read without
	// any lock by the tasks: a sender finds its destination's mailbox here,
	// and an incarnation that is no longer cur knows it was superseded.
	cur atomic.Pointer[incarnation]

	mu        sync.Mutex
	prog      Program
	completed bool
	// sizeHint is the task's packed size at the last capture; it seeds the
	// next capture's buffer so packing can skip the Sizing traversal when
	// the state size is stable (the common steady-state case).
	sizeHint int
	// lastCap is the checkpoint this slot produced at its most recent
	// capture — the splice base for the next capture's dirty path. Its
	// lifetime is guaranteed by the commit protocol: eviction only drops
	// strictly older epochs, every restore/rollback funnels through
	// RestartReplica, which clears it (a fresh incarnation is blind), and a
	// replica captured for a round that then aborts or is recaptured keeps
	// running only after ResetCaptureBases has cleared it too.
	lastCap *ckptstore.Checkpoint
	// dirtyScratch is the reusable range buffer handed to the program's
	// DirtyTracker at capture time.
	dirtyScratch []pup.Range
	// patchCap is the slot's capture from two epochs ago, retained as the
	// patch-in-place base for the next capture (CaptureOptions.PatchCapture):
	// by the time it is reused, the commit protocol has evicted it from the
	// store, and its Retained flag keeps the pool from handing its buffer to
	// anyone else. patchDirty is the dirty set of the most recent capture —
	// exactly the ranges by which patchCap's stream differs from lastCap's —
	// and is valid whenever patchCap is non-nil. patchScratch is the
	// reusable union buffer. All three are cleared by RestartReplica and
	// ResetCaptureBases along with lastCap, and by any capture that could
	// not splice.
	patchCap     *ckptstore.Checkpoint
	patchDirty   []pup.Range
	patchScratch []pup.Range
}

// Failure describes a detected hard error.
type Failure struct {
	Replica int // replica of the failed logical node
	Node    int // logical node index
	Phys    int // physical node id
	Time    time.Time
}

// mailboxCap bounds the messages a task's mailbox may hold before Send to it
// returns the overflow error. It is a bound, not an allocation: a mailbox
// starts empty and grows with its backlog.
const mailboxCap = 4096

// Machine hosts the two replicas and the spare pool.
type Machine struct {
	cfg Config
	// mailboxCap is the package constant; tests lower it before Start.
	mailboxCap int

	mu   sync.RWMutex
	phys []*physNode
	// route maps (replica, logical node) to its physical node. Written under
	// mu (NewMachine, ReplaceWithSpare, FoldOntoSurvivor, ExpandFolded) and
	// read without it: the tasks consult it every iteration.
	route  [2][]atomic.Pointer[physNode]
	spares []int // free physical node ids
	// epoch is the replica's rollback generation, bumped by StopReplica
	// under mu and read by Send without it.
	epoch [2]atomic.Uint64
	// slots is [replica][node][task]; the structure is immutable after
	// NewMachine.
	slots [2][][]*taskSlot
	// folded[rep] marks logical nodes currently sharing a survivor's
	// physical node after spare exhaustion (degraded mode).
	folded  [2]map[int]bool
	expands atomic.Int64 // folded nodes re-expanded onto freed spares

	appErr     error
	completed  int
	total      int
	doneCh     chan struct{}
	doneClosed bool

	failures chan Failure
	stopped  latch // fired by Stop, or by the first application error
	// startMu serializes Start against Stop: Stop must not Wait on the
	// WaitGroup while a concurrent Start is still issuing its first Adds
	// (an external owner, e.g. a fleet scheduler shutting down, may stop a
	// machine whose controller has only just begun running it).
	startMu sync.Mutex
	wg      sync.WaitGroup // task goroutines + detector

	// packFast / packSlow count task packs that hit the single-pass
	// size-hint path versus the two-pass Sizing+Packing fallback.
	packFast, packSlow atomic.Int64
	// dirtyChunksPacked / dirtyChunksReused split tracked captures'
	// chunks into recomputed-dirty versus spliced-from-previous-epoch;
	// dirtyBytesReused counts payload bytes memcpy'd from the previous
	// stream instead of re-encoded.
	dirtyChunksPacked, dirtyChunksReused, dirtyBytesReused atomic.Int64
}

// PackCounters returns how many task packs took the single-pass size-hint
// fast path versus the two-pass Sizing+Packing fallback.
func (m *Machine) PackCounters() (fast, slow int64) {
	return m.packFast.Load(), m.packSlow.Load()
}

// DirtyCounters returns the incremental-capture counters: chunks whose
// checksums were recomputed (dirty), chunks whose checksums were spliced
// from the previous epoch (clean), and payload bytes copied from the
// previous packed stream instead of re-encoded. All zero while no task
// tracks writes.
func (m *Machine) DirtyCounters() (chunksPacked, chunksReused, bytesReused int64) {
	return m.dirtyChunksPacked.Load(), m.dirtyChunksReused.Load(), m.dirtyBytesReused.Load()
}

// ReplicaStateHint returns the replica's summed packed-size hints from the
// last capture — a cheap estimate of total state size, 0 before the first
// capture.
func (m *Machine) ReplicaStateHint(rep int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := 0
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		for t := 0; t < m.cfg.TasksPerNode; t++ {
			s := m.slots[rep][n][t]
			s.mu.Lock()
			total += s.sizeHint
			s.mu.Unlock()
		}
	}
	return total
}

// NewMachine allocates a machine; call Start to launch the tasks.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:        cfg,
		mailboxCap: mailboxCap,
		failures:   make(chan Failure, 2*cfg.NodesPerReplica+cfg.Spares),
		stopped:    newLatch(),
		doneCh:     make(chan struct{}),
	}
	total := 2*cfg.NodesPerReplica + cfg.Spares
	for i := 0; i < total; i++ {
		m.phys = append(m.phys, &physNode{id: i})
	}
	for rep := 0; rep < 2; rep++ {
		m.route[rep] = make([]atomic.Pointer[physNode], cfg.NodesPerReplica)
		m.slots[rep] = make([][]*taskSlot, cfg.NodesPerReplica)
		for n := 0; n < cfg.NodesPerReplica; n++ {
			m.route[rep][n].Store(m.phys[rep*cfg.NodesPerReplica+n])
			m.slots[rep][n] = make([]*taskSlot, cfg.TasksPerNode)
			for t := 0; t < cfg.TasksPerNode; t++ {
				addr := Addr{Replica: rep, Node: n, Task: t}
				m.slots[rep][n][t] = &taskSlot{
					addr: addr,
					prog: cfg.Factory(addr),
				}
			}
		}
	}
	for s := 0; s < cfg.Spares; s++ {
		m.spares = append(m.spares, 2*cfg.NodesPerReplica+s)
	}
	m.total = 2 * cfg.NodesPerReplica * cfg.TasksPerNode
	return m, nil
}

// SpareCount returns the number of unused spare nodes.
func (m *Machine) SpareCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.spares)
}

// Failures delivers detected hard errors (one event per failed node).
func (m *Machine) Failures() <-chan Failure { return m.failures }

// Start launches every task goroutine and the failure detector. Starting a
// machine that has already been stopped is a no-op: the stop wins, and Wait
// reports ErrStopped.
func (m *Machine) Start() {
	m.startMu.Lock()
	defer m.startMu.Unlock()
	if m.stopped.fired() {
		return
	}
	m.mu.Lock()
	for rep := 0; rep < 2; rep++ {
		m.startReplicaLocked(rep)
	}
	m.mu.Unlock()
	if m.cfg.HeartbeatInterval > 0 && m.cfg.HeartbeatTimeout > 0 {
		m.wg.Add(1)
		go m.detectorLoop()
	}
}

// Stop aborts everything; Wait will return ErrStopped unless the job had
// already finished. Safe to call concurrently with Start: the startMu
// acquisition orders Stop's WaitGroup wait after any in-flight Start's
// goroutine launches, and later Starts see the closed stop channel.
func (m *Machine) Stop() {
	m.halt()
	m.startMu.Lock()
	m.startMu.Unlock() //nolint:staticcheck // empty section: barrier against in-flight Start
	m.wg.Wait()
}

// Done reports whether every task of both replicas is currently completed.
// Unlike Wait it never blocks, and it reflects rollbacks: a replica
// restarted from a checkpoint makes Done false again until the rerun
// finishes.
func (m *Machine) Done() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.completed == m.total && m.appErr == nil
}

// Wait blocks until every task of both replicas has completed (returns
// nil), the application reported an error, or the machine was stopped.
// Completion is level-triggered: a rollback of completed tasks (StopReplica)
// re-arms Wait until the rerun finishes.
func (m *Machine) Wait() error {
	for {
		m.mu.RLock()
		done := m.doneCh
		finished := m.completed == m.total
		err := m.appErr
		m.mu.RUnlock()
		if err != nil {
			return err
		}
		if finished {
			return nil
		}
		select {
		case <-done:
			// Re-verify: the channel may be stale after a rollback.
		case <-m.stopped.ch:
			m.mu.RLock()
			defer m.mu.RUnlock()
			if m.appErr != nil {
				return m.appErr
			}
			if m.completed == m.total {
				return nil
			}
			return ErrStopped
		}
	}
}

// physFor returns the physical node currently backing a logical node. It
// needs no lock.
func (m *Machine) physFor(rep, node int) *physNode {
	return m.route[rep][node].Load()
}

// Alive reports whether the physical node backing the logical node is
// alive.
func (m *Machine) Alive(rep, node int) bool {
	return m.physFor(rep, node).alive()
}

// Kill fail-stops the physical node currently backing the logical node:
// from this instant it neither sends nor receives (§6.1's no-response
// scheme). Returns the physical node id.
//
// It takes no lock. Every incarnation routed to the node — the logical nodes
// folded onto it included — is interrupted after the node is marked dead;
// publishSlotLocked stores an incarnation and then looks at its node, so an
// incarnation published concurrently is interrupted by one side or the other.
// A node re-routed between the mark and the scan (ReplaceWithSpare racing
// the kill it recovers from) keeps its incarnations until the replica
// rollback that recovery performs anyway.
func (m *Machine) Kill(rep, node int) int {
	p := m.physFor(rep, node)
	p.kill()
	for rep := range m.route {
		for n := range m.route[rep] {
			if m.route[rep][n].Load() == p {
				m.interruptNode(rep, n)
			}
		}
	}
	return p.id
}

// interruptNode interrupts the current incarnation of every task of a logical
// node. It takes no lock.
func (m *Machine) interruptNode(rep, node int) {
	for _, s := range m.slots[rep][node] {
		if inc := s.cur.Load(); inc != nil {
			inc.interrupt()
		}
	}
}

// ReplaceWithSpare remaps the logical node onto a spare physical node. The
// tasks of the node are not restarted; use RestartTasks with a checkpoint.
func (m *Machine) ReplaceWithSpare(rep, node int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.spares) == 0 {
		return fmt.Errorf("replace r%d/n%d: %w", rep, node, ErrSpareExhausted)
	}
	if m.physFor(rep, node).alive() {
		return fmt.Errorf("runtime: node r%d/n%d is alive; refusing to replace", rep, node)
	}
	id := m.spares[0]
	m.spares = m.spares[1:]
	m.route[rep][node].Store(m.phys[id])
	delete(m.folded[rep], node)
	return nil
}

// FoldOntoSurvivor remaps a dead logical node onto the least-loaded live
// physical node of the same replica — the Charm++-style shrink that keeps
// a job running in degraded mode when the spare pool is exhausted. Load is
// the number of logical nodes a physical node currently backs; ties break
// toward the lowest PHYSICAL node id, so the fold target is a pure
// function of the current route state, independent of the remap history
// that produced it (a logical-index tie-break would pick a different
// survivor after a spare replacement reordered the route, and fleet-level
// chaos reports would stop being byte-identical). Returns the logical node
// whose physical node now also hosts the folded node.
//
// Folding is transparent to the tasks: logical addressing (mailboxes,
// routes) is unchanged, and the replica is restarted from a checkpoint by
// the caller as part of hard-error recovery, so the fresh incarnations
// observe the new physical mapping.
func (m *Machine) FoldOntoSurvivor(rep, node int) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.physFor(rep, node).alive() {
		return -1, fmt.Errorf("runtime: node r%d/n%d is alive; refusing to fold", rep, node)
	}
	load := make(map[int]int)
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		if n == node {
			continue
		}
		if p := m.physFor(rep, n); p.alive() {
			load[p.id]++
		}
	}
	best, bestNode := -1, -1
	for n := 0; n < m.cfg.NodesPerReplica; n++ {
		if n == node {
			continue
		}
		p := m.physFor(rep, n)
		if !p.alive() {
			continue
		}
		if best < 0 || load[p.id] < load[best] ||
			(load[p.id] == load[best] && p.id < best) {
			best, bestNode = p.id, n
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("runtime: replica %d has no live survivor to fold r%d/n%d onto", rep, rep, node)
	}
	m.route[rep][node].Store(m.phys[best])
	if m.folded[rep] == nil {
		m.folded[rep] = make(map[int]bool)
	}
	m.folded[rep][node] = true
	return bestNode, nil
}

// AddSpare models a repaired physical node rejoining the machine: a fresh
// node is appended and placed in the spare pool. Returns its physical id.
// The detector watches it exactly as it watches a launch-time node.
func (m *Machine) AddSpare() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := len(m.phys)
	m.phys = append(m.phys, &physNode{id: id})
	m.spares = append(m.spares, id)
	return id
}

// TakeSpare withdraws one unused spare from the pool — the fleet scheduler's
// preemption primitive: a spare taken from a low-priority healthy job is
// re-granted to a degraded job via its Controller.FreeSpare. The newest
// spare is taken so the FIFO order ReplaceWithSpare consumes is untouched.
// Returns the withdrawn physical id, or ok=false when no spare is free.
func (m *Machine) TakeSpare() (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.spares) == 0 {
		return -1, false
	}
	id := m.spares[len(m.spares)-1]
	m.spares = m.spares[:len(m.spares)-1]
	return id, true
}

// ExpandFolded remaps folded logical nodes back onto free spares (lowest
// replica/node first) and returns how many nodes were re-expanded. Live
// incarnations follow the route: from here on it is the spare's death that
// kills the tasks of a re-expanded node, not the survivor's.
func (m *Machine) ExpandFolded() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for rep := 0; rep < 2; rep++ {
		for node := 0; node < m.cfg.NodesPerReplica; node++ {
			if !m.folded[rep][node] || len(m.spares) == 0 {
				continue
			}
			id := m.spares[0]
			m.spares = m.spares[1:]
			m.route[rep][node].Store(m.phys[id])
			delete(m.folded[rep], node)
			n++
		}
	}
	m.expands.Add(int64(n))
	return n
}

// FoldedCount returns the number of logical nodes currently folded onto
// survivors (the machine's degraded-node count).
func (m *Machine) FoldedCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.folded[0]) + len(m.folded[1])
}

// ExpandCount returns how many folded nodes have been re-expanded onto
// spares over the machine's lifetime.
func (m *Machine) ExpandCount() int64 { return m.expands.Load() }

// recordCompletion is called by the task runner on successful completion.
func (m *Machine) recordCompletion() {
	m.mu.Lock()
	m.completed++
	if m.completed == m.total && !m.doneClosed {
		m.doneClosed = true
		close(m.doneCh)
	}
	m.mu.Unlock()
}

func (m *Machine) recordAppError(err error) {
	m.mu.Lock()
	if m.appErr == nil {
		m.appErr = err
	}
	m.mu.Unlock()
	m.halt()
}

// halt latches the machine stopped and interrupts every current incarnation.
// An incarnation published after the scan sees the latch (publishSlotLocked).
func (m *Machine) halt() {
	m.stopped.fire()
	for rep := range m.slots {
		for n := range m.slots[rep] {
			m.interruptNode(rep, n)
		}
	}
}

// detectorLoop is the failure detector. Every HeartbeatInterval it reports
// each routed logical node whose physical node has been silent for longer
// than HeartbeatTimeout. A node falls silent only when it is killed, so the
// loop reads each node's kill instant rather than collecting beats.
// Detection is reported once per physical node.
func (m *Machine) detectorLoop() {
	defer m.wg.Done()
	reported := make(map[int]bool)
	tick := time.NewTicker(m.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-m.stopped.ch:
			return
		case <-tick.C:
		}
		if h := m.cfg.Chaos; h != nil {
			m.mu.RLock()
			phys := m.phys
			m.mu.RUnlock()
			for _, p := range phys {
				if p.alive() {
					// A hook that sleeps here stalls this tick: a late
					// heartbeat can only delay detection.
					h.Fire(point.RuntimeHeartbeat, &point.Info{Replica: -1, Node: p.id, Task: -1})
				}
			}
		}
		now := time.Now()
		var hits []Failure
		m.mu.RLock()
		for rep := 0; rep < 2; rep++ {
			for n := 0; n < m.cfg.NodesPerReplica; n++ {
				p := m.physFor(rep, n)
				if !reported[p.id] && p.silentFor(now) > m.cfg.HeartbeatTimeout {
					hits = append(hits, Failure{Replica: rep, Node: n, Phys: p.id, Time: now})
				}
			}
		}
		m.mu.RUnlock()
		for _, f := range hits {
			reported[f.Phys] = true
			select {
			case m.failures <- f:
			case <-m.stopped.ch:
				return
			}
		}
	}
}
