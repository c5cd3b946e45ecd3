package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/pup"
	"acr/internal/runtime"
	"acr/internal/trace"
)

// Record is the post-run account of one armed fault: the resolved schedule
// entry plus whether its trigger ever fired. Records contain only
// seed-deterministic facts, so campaign reports built from them are
// byte-identical across same-seed runs.
type Record struct {
	Kind       FaultKind `json:"kind"`
	Target     string    `json:"target"`
	Point      point.ID  `json:"point"`
	Occurrence int       `json:"occurrence"`
	Executed   bool      `json:"executed"`
}

// iterDelay is the per-iteration throttle applied to every task (see
// Fire's RuntimeProgress handling). It also stretches each run across many
// failure-detector ticks, so heartbeat-triggered faults have room to fire.
const iterDelay = 50 * time.Microsecond

// armedFault is a resolved fault plus its live trigger state.
type armedFault struct {
	Fault
	seen     int // matching firings so far
	executed bool
}

// flipKey addresses the buddy write a Both-mode corruption is mirrored
// onto: replica 1's store write of the same {node, task, epoch}.
type flipKey struct {
	node, task int
	epoch      uint64
}

// pendingFlip remembers a Both-mode corruption so the buddy's write gets
// the identical bit flip.
type pendingFlip struct {
	offEnd  int // byte offset counted back from the payload end (1..8)
	bit     int
	flipped *ckptstore.Checkpoint // the replica-0 copy already flipped
}

// Engine arms a resolved fault schedule against the injection points and
// implements point.Hook. One Engine drives exactly one run: it also tracks
// point coverage, paces the controller's checkpoint rounds off progress
// reports, and performs the live-path invariant bookkeeping the Oracle
// reads back after the run (progress monotonicity, commit monotonicity,
// which epochs carry resident corruption).
type Engine struct {
	scn    *Scenario
	tl     *trace.Timeline
	faults []*armedFault

	mu  sync.Mutex
	rng *rand.Rand
	// ctrl is bound before the run starts and only read afterwards.
	ctrl *core.Controller
	// remote is the run's simulated object store, bound when the scenario
	// enables the remote tier (RemoteEvery > 0); RemoteDark faults act on
	// it.
	remote *ckptstore.Remote

	coverage  map[point.ID]int
	progressN int

	// Invariant bookkeeping (see Oracle).
	commits []uint64 // CoreCommit epochs, in order
	// corruptEpochs lists epochs whose *resident* checkpoint bytes were
	// corrupted (mem-tier flips); committing one of these is an SDC escape.
	corruptEpochs map[uint64]bool
	// lastIter / restartGen detect non-monotonic progress: a task's
	// reported iteration may only decrease after its replica restarted.
	lastIter   map[[3]int]int
	restartGen [2]int
	iterGen    map[[3]int]int
	liveViol   []Violation

	// A Both-mode corruption fires on replica 0's write and is mirrored
	// onto replica 1's write of the same (node, task, epoch), whichever of
	// the two lands first: each replica is captured the moment its own
	// tasks park. buddyWrites holds replica 1's latest write per (node,
	// task), flipped at once when it already carries the epoch; otherwise
	// the flip waits in pending, keyed per buddy write because at
	// capture-stage width N other tasks' writes interleave between a
	// replica-0 write and its buddy's.
	buddyWrites map[[2]int]point.Info
	pending     map[flipKey]pendingFlip
}

// NewEngine resolves the scenario's fault schedule with the seed and
// returns an engine ready to bind to a controller. tl may be nil.
func NewEngine(scn *Scenario, seed int64, tl *trace.Timeline) *Engine {
	rng := rand.New(rand.NewSource(seed))
	resolved := scn.resolveFaults(rng)
	e := &Engine{
		scn:           scn,
		tl:            tl,
		rng:           rng,
		coverage:      make(map[point.ID]int, len(point.All())),
		corruptEpochs: make(map[uint64]bool),
		buddyWrites:   make(map[[2]int]point.Info),
		pending:       make(map[flipKey]pendingFlip),
		lastIter:      make(map[[3]int]int),
		iterGen:       make(map[[3]int]int),
	}
	for i := range resolved {
		e.faults = append(e.faults, &armedFault{Fault: resolved[i]})
	}
	return e
}

// Bind attaches the controller the engine acts on (kills, pacing, store
// access). Must be called before the controller runs.
func (e *Engine) Bind(ctrl *core.Controller) { e.ctrl = ctrl }

// BindRemote attaches the simulated remote store RemoteDark faults darken.
// Must be called before the controller runs when the scenario has remote
// faults.
func (e *Engine) BindRemote(rm *ckptstore.Remote) { e.remote = rm }

// Fire implements point.Hook. It never blocks under the engine mutex:
// actions that sleep or re-enter the controller are collected and run after
// unlock, on the firing goroutine.
func (e *Engine) Fire(id point.ID, info *point.Info) {
	var actions []func()
	e.mu.Lock()
	e.coverage[id]++
	e.observe(id, info)
	if id == point.RuntimeProgress && e.scn.PaceEvery > 0 {
		e.progressN++
		if e.progressN%e.scn.PaceEvery == 0 {
			ctrl := e.ctrl
			actions = append(actions, func() { ctrl.PredictFailure() })
		}
		// Throttle the reporting task so the controller's round processing
		// keeps pace with the application: without this, a fast workload
		// finishes all its iterations before the event loop serves even one
		// paced round, and phase-triggered faults never reach their
		// occurrence. The delay runs after unlock, on the task goroutine.
		actions = append(actions, func() { time.Sleep(iterDelay) })
	}
	if id == point.StoreWrite && info.Replica == 1 {
		if act := e.applyPendingFlip(info); act != nil {
			actions = append(actions, act)
		}
		e.buddyWrites[[2]int{info.Node, info.Task}] = *info
	}
	for _, f := range e.faults {
		if f.executed || f.Trigger.Point != id || !e.matches(f.Target, id, info) {
			continue
		}
		f.seen++
		if f.seen < f.Trigger.Occurrence {
			continue
		}
		if act, ok := e.execute(f, id, info); ok {
			f.executed = true
			if act != nil {
				actions = append(actions, act)
			}
		} else {
			f.seen-- // not executable at this firing; stay armed
		}
	}
	e.mu.Unlock()
	for _, act := range actions {
		act()
	}
}

// observe maintains the live-path invariant state. Engine mutex held.
func (e *Engine) observe(id point.ID, info *point.Info) {
	switch id {
	case point.CoreCommit:
		if n := len(e.commits); n > 0 && info.Epoch <= e.commits[n-1] {
			e.liveViol = append(e.liveViol, Violation{
				Invariant: InvCommitMonotonic,
				Detail:    fmt.Sprintf("commit epoch %d after %d", info.Epoch, e.commits[n-1]),
			})
		}
		e.commits = append(e.commits, info.Epoch)
	case point.CoreRestart:
		if info.Replica >= 0 && info.Replica < 2 {
			e.restartGen[info.Replica]++
		}
	case point.RuntimeProgress:
		key := [3]int{info.Replica, info.Node, info.Task}
		gen := e.restartGen[info.Replica]
		if last, ok := e.lastIter[key]; ok && e.iterGen[key] == gen && info.Iter < last {
			e.liveViol = append(e.liveViol, Violation{
				Invariant: InvProgressMonotonic,
				Detail: fmt.Sprintf("task r%d/n%d/t%d regressed %d -> %d without a restart",
					info.Replica, info.Node, info.Task, last, info.Iter),
			})
		}
		e.lastIter[key] = info.Iter
		e.iterGen[key] = gen
	}
}

// matches reports whether the firing context satisfies the fault target.
// Resolved targets are fully concrete except for NetFrame faults, which
// keep wildcards; a -1 on either side (the point does not carry that
// dimension, or the fault matches any frame) matches anything.
// RuntimeHeartbeat carries a *physical* node id, compared against the
// target's launch-time mapping (replica*Nodes + node).
func (e *Engine) matches(tgt Target, id point.ID, info *point.Info) bool {
	if id == point.RuntimeHeartbeat {
		return info.Node == tgt.Replica*e.scn.Nodes+tgt.Node
	}
	if info.Replica >= 0 && tgt.Replica >= 0 && info.Replica != tgt.Replica {
		return false
	}
	if info.Node >= 0 && tgt.Node >= 0 && info.Node != tgt.Node {
		return false
	}
	if info.Task >= 0 && tgt.Task >= 0 && info.Task != tgt.Task {
		return false
	}
	return true
}

// execute performs one fault. It returns the deferred action to run after
// unlock (nil when everything happened inline) and whether the fault
// actually executed at this firing. Engine mutex held.
func (e *Engine) execute(f *armedFault, id point.ID, info *point.Info) (func(), bool) {
	switch f.Kind {
	case Crash:
		ctrl, rep, node := e.ctrl, f.Target.Replica, f.Target.Node
		e.mark("inject crash r%d/n%d at %s", rep, node, id)
		return func() { ctrl.KillNode(rep, node) }, true
	case BuddyDoubleCrash:
		ctrl, rep, node := e.ctrl, f.Target.Replica, f.Target.Node
		e.mark("inject buddy double crash n%d at %s", node, id)
		return func() {
			ctrl.KillNode(rep, node)
			ctrl.KillNode(1-rep, node)
		}, true
	case MsgBitFlip:
		return nil, e.flipMessage(f, info)
	case CkptCorrupt:
		return e.corruptCheckpoint(f, info)
	case HeartbeatDelay:
		d := time.Duration(f.Delay)
		if d <= 0 {
			d = time.Millisecond
		}
		e.mark("inject heartbeat delay %s at phys node %d", d, info.Node)
		return func() { time.Sleep(d) }, true
	case FrameDrop:
		// Inline: the exchange reads Info.Drop right after the hook
		// returns and discards the frame before the link sees it.
		info.Drop = true
		e.mark("inject frame drop n%d/t%d@e%d chunk %d", info.Node, info.Task, info.Epoch, info.Iter)
		return nil, true
	case RemoteOpFail:
		// Inline: the remote reads Info.Drop right after the hook returns
		// and fails the operation with ErrRemoteUnavailable before touching
		// the object map.
		info.Drop = true
		e.mark("inject remote op fail at %s e%d", id, info.Epoch)
		return nil, true
	case RemoteDark:
		rm := e.remote
		if rm == nil {
			return nil, false
		}
		count := f.Count
		if count <= 0 {
			e.mark("inject remote dark (until end of run) at %s", id)
			return func() { rm.SetDark(true) }, true
		}
		e.mark("inject remote dark for %d ops at %s", count, id)
		// Deferred: SetDarkFor fires point.RemoteDark, which re-enters this
		// hook.
		return func() { rm.SetDarkFor(count) }, true
	case TrackerBlind:
		// Mute the task's dirty-write marks in BOTH replicas so the
		// buddies keep lying identically: a one-sided blind would make the
		// next comparison catch the divergence, which is the detectable
		// case, not the one this fault emulates. CoreCapture fires under
		// quiescence before any task of the round is packed, so the mute
		// lands symmetrically ahead of both replicas' captures. The
		// deferred action re-enters the machine, so it must run after
		// unlock.
		ctrl, tgt := e.ctrl, f.Target
		e.mark("inject tracker blind n%d/t%d at %s", tgt.Node, tgt.Task, id)
		return func() {
			for rep := 0; rep < 2; rep++ {
				ctrl.Machine().CorruptTask(runtime.Addr{Replica: rep, Node: tgt.Node, Task: tgt.Task}, func(p pup.Pupable) {
					if r, ok := p.(*RingProg); ok {
						r.muted = true
					}
				})
			}
		}, true
	}
	return nil, false
}

// flipMessage flips one random bit of a scalar payload in flight. Only
// scalars are touched: the payload is replaced by value, never mutated
// through a shared reference, so concurrent senders stay race-free.
func (e *Engine) flipMessage(f *armedFault, info *point.Info) bool {
	bit := uint(e.rng.Intn(64))
	switch v := info.Payload.(type) {
	case float64:
		info.Payload = math.Float64frombits(math.Float64bits(v) ^ 1<<bit)
	case int64:
		info.Payload = v ^ 1<<bit
	case int:
		info.Payload = v ^ 1<<(bit&63)
	default:
		return false // non-scalar payload: stay armed for the next delivery
	}
	e.mark("inject msg bit flip bit %d -> %s", bit, f.Target)
	return true
}

// corruptCheckpoint flips one bit inside the trailing 8 bytes of the
// checkpoint just stored — the workload's float payload, so the corruption
// always unpacks as a wrong value. On a disk tier the flip is applied to
// the backing file (at rest); on the memory tier to the resident bytes.
func (e *Engine) corruptCheckpoint(f *armedFault, info *point.Info) (func(), bool) {
	ck, ok := info.Payload.(*ckptstore.Checkpoint)
	if !ok || ck.Len() < 8 {
		return nil, false
	}
	offEnd := 1 + e.rng.Intn(8)
	bit := e.rng.Intn(8)
	e.mark("inject ckpt corruption r%d/n%d/t%d@e%d byte -%d bit %d (both=%v)",
		info.Replica, info.Node, info.Task, info.Epoch, offEnd, bit, f.Both)
	act := e.flipStored(info, offEnd, bit)
	if !f.Both {
		return act, true
	}
	p := pendingFlip{offEnd: offEnd, bit: bit, flipped: ck}
	buddy, ok := e.buddyWrites[[2]int{info.Node, info.Task}]
	if !ok || buddy.Epoch != info.Epoch {
		e.pending[flipKey{info.Node, info.Task, info.Epoch}] = p
		return act, true
	}
	mirror := e.mirrorFlip(&buddy, p)
	return func() {
		if act != nil {
			act()
		}
		if mirror != nil {
			mirror()
		}
	}, true
}

// applyPendingFlip mirrors a pending Both-mode corruption onto replica 1's
// write of the same {node, task, epoch}. Engine mutex held.
func (e *Engine) applyPendingFlip(info *point.Info) func() {
	key := flipKey{info.Node, info.Task, info.Epoch}
	p, ok := e.pending[key]
	if !ok {
		return nil
	}
	delete(e.pending, key)
	return e.mirrorFlip(info, p)
}

// mirrorFlip applies a Both-mode corruption's bit flip to the buddy write
// info describes. A memory-tier buddy holding the very checkpoint already
// flipped (a recovery round mirrors one replica's checkpoint under the
// other's key by reference) is left alone: the one flip reached both keys,
// and a second would undo it. Engine mutex held.
func (e *Engine) mirrorFlip(info *point.Info, p pendingFlip) func() {
	e.mark("mirror ckpt corruption onto buddy r1/n%d/t%d@e%d byte -%d bit %d",
		info.Node, info.Task, info.Epoch, p.offEnd, p.bit)
	if info.Payload == p.flipped && e.diskTier() == nil {
		return nil
	}
	return e.flipStored(info, p.offEnd, p.bit)
}

// flipStored flips the chosen bit of the stored checkpoint the StoreWrite
// firing describes. Memory tiers are flipped inline (the resident bytes ARE
// the stored copy, and the epoch is remembered as carrying resident
// corruption); disk tiers get a deferred file-level flip through
// Disk.CorruptAtRest.
func (e *Engine) flipStored(info *point.Info, offEnd, bit int) func() {
	ck := info.Payload.(*ckptstore.Checkpoint)
	if d := e.diskTier(); d != nil {
		k := ckptstore.Key{Replica: info.Replica, Node: info.Node, Task: info.Task, Epoch: info.Epoch}
		return func() { _ = d.CorruptAtRest(k, -offEnd, bit) }
	}
	data := ck.MutableBytes()
	data[len(data)-offEnd] ^= 1 << uint(bit)
	e.corruptEpochs[info.Epoch] = true
	return nil
}

// diskTier finds the *ckptstore.Disk under the controller's store, through
// whatever wrappers sit on it; nil when the run uses another tier.
func (e *Engine) diskTier() *ckptstore.Disk {
	d, _ := ckptstore.As[*ckptstore.Disk](e.ctrl.Store())
	return d
}

// mark emits an injection event on the timeline, if one is attached.
func (e *Engine) mark(format string, args ...any) {
	if e.tl != nil {
		e.tl.Add(0, trace.Inject, fmt.Sprintf(format, args...))
	}
}

// Records returns the resolved schedule with execution flags, in spec
// order.
func (e *Engine) Records() []Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Record, len(e.faults))
	for i, f := range e.faults {
		out[i] = Record{
			Kind:       f.Kind,
			Target:     f.Target.String(),
			Point:      f.Trigger.Point,
			Occurrence: f.Trigger.Occurrence,
			Executed:   f.executed,
		}
	}
	return out
}

// Coverage returns the fired count per registered injection point (zero
// entries included), sorted by point id.
func (e *Engine) Coverage() []PointCoverage {
	e.mu.Lock()
	defer e.mu.Unlock()
	all := point.All()
	out := make([]PointCoverage, 0, len(all))
	for _, id := range all {
		out = append(out, PointCoverage{Point: id, Fired: e.coverage[id]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// PointCoverage is one injection point's firing count for a run.
type PointCoverage struct {
	Point point.ID `json:"point"`
	Fired int      `json:"fired"`
}

// snapshot returns the invariant bookkeeping for the oracle.
func (e *Engine) snapshot() (commits []uint64, corrupt map[uint64]bool, live []Violation) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]uint64(nil), e.commits...), e.corruptEpochs, append([]Violation(nil), e.liveViol...)
}
