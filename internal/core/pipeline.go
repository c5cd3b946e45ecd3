package core

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/runtime"
	"acr/internal/stages"
	"acr/internal/trace"
)

// This file is the one checkpoint-round body. Every round — the compared
// two-replica round and the trusted one-replica recovery round — pushes
// each (node, task) through capture → exchange → compare (roundBody). Two
// things vary, neither with whether a chaos hook is attached: how wide each
// stage runs (stageWidths), and when each replica enters it. The consensus
// hands the replicas over one at a time, each the moment its own tasks have
// parked at the round's target (consensus.Handoff), and a replica's
// captures are enqueued as soon as it is handed:
//
//   - the first replica handed is the round's sender — under a link the
//     exchange ships its data — so its captures and the link round trip
//     overlap the other replica's catch-up to the cut; a task is compared
//     as soon as both its captures and its exchange exist, and once the
//     last replica is handed only its own captures and the compares remain;
//   - replicas handed together are walked task-major, replica 0 first, with
//     replica 0 as the sender — the paper's joint cut;
//   - at width 1 everywhere the stages run inline on the controller
//     goroutine, a handed replica's captures (and the sender's exchanges)
//     right away, the compares once the cut is complete, each stage in
//     dense (node, task) order — with no goroutine or channel per round;
//   - at any larger width the stages are channel-connected worker pools,
//     and a task enters exchange the moment its sender capture lands and
//     compare the moment its last prerequisite does, so capture CPU, link
//     flight time and compare CPU of different tasks overlap.
//
// The verdict does not depend on the width or on the handoff order: there
// is no early cancellation, every task's outcome and compare verdict lands
// in a dense slice, and errors are resolved in stage order and then (node,
// task) order, so the lowest failing stage's lowest (node, task) wins
// exactly as in a serial walk.
// What a live round's exchange ships is what its comparison needs: under
// checksum comparison the sender's digest of a task, which the compare
// stage then decides on against the other replica's checkpoint — the
// verdict rests on what crossed the link; under full comparison the
// sender's checkpoint bytes, root-verified against their source and
// discarded, while the byte comparison reads the store's copy.
// Semi-blocking (§4.2 [27]) is the same round with an earlier release
// point: the cut is released when every capture of both replicas has
// landed.

// stageWorkerBytes is the payload a CPU-bound stage worker needs to
// amortize its share of the fan-out (goroutine spin-up, channel hops).
// Measured on 96 KB–4 MB machine shapes: a parallel compare that gave
// each worker only a few tens of KiB ran at 0.82–0.99x of the serial walk,
// and the crossover sat near half a MiB per worker.
const stageWorkerBytes = 512 << 10

// exchangeWidth bounds the exchange stage when a link is attached. The
// stage is latency-bound, not CPU-bound — a worker spends its time in the
// one round-trip sleep per pass of its transfer's window — so the bound is
// about not flooding the wire arbitration mutex, not about cores.
const exchangeWidth = 32

// stageWidths is one round's worker count per stage, plus the inner
// chunk-checksum parallelism of each task capture.
type stageWidths struct {
	capture, exchange, compare, chunk int
}

// testStageWidth, when positive, forces every stage to that width. It is a
// test seam: nothing outside _test files stores it.
var testStageWidth atomic.Int32

// stageWidths sizes the round's stages from GOMAXPROCS, the task count and
// the replica state-size hint. A chaos hook changes nothing here, nor when
// a replica starts: a fault campaign runs the rounds production runs. Its
// reports stay a function of the seed because a fault triggers on a count
// of firings at its (point, replica, node, task), and a report records
// whether a fault fired, not which concurrent firing it landed on
// (scripts/chaos_golden.sh checks this at any GOMAXPROCS).
func (c *Controller) stageWidths() stageWidths {
	total := c.cfg.NodesPerReplica * c.cfg.TasksPerNode
	clamp := func(w int) int { return max(1, min(w, total)) }
	if w := int(testStageWidth.Load()); w > 0 {
		return stageWidths{clamp(w), clamp(w), clamp(w), 1}
	}
	procs := stdruntime.GOMAXPROCS(0)
	// Before the first capture the state size is unknown (hint 0) and the
	// round stays narrow; every later round sizes against the real bytes.
	hint := c.machine.ReplicaStateHint(0)
	cpuBound := func(bytes int) int { return clamp(min(procs, bytes/stageWorkerBytes)) }
	w := stageWidths{
		capture:  cpuBound(2 * hint), // both replicas' bytes
		exchange: 1,
		compare:  cpuBound(hint),
	}
	if c.exch != nil {
		w.exchange = clamp(exchangeWidth)
	}
	// The two capture levels split the same cores: chunk-level parallelism
	// only pays where the task pool cannot use them all and one task's
	// buffer is big enough to share out (single-task-per-node shapes with
	// one big buffer).
	w.chunk = max(1, min(procs/w.capture, hint/total/stageWorkerBytes))
	return w
}

// verdict is one (node, task)'s compare result: the mismatch description
// ("" when the buddies agree) and its localized chunk.
type verdict struct {
	mismatch string
	chunk    int
}

// testReplicaCaptured, when set, is called with a replica each time every
// capture of that replica in a round has landed. It is a test seam:
// nothing outside _test files stores it.
var testReplicaCaptured atomic.Pointer[func(rep int)]

// capItem is one capture-stage item: the task of the marked replicas (n of
// them), packed back to back in replica order.
type capItem struct {
	task int
	reps [2]bool
	n    int32
}

// roundBody is one round's stage pipeline. The controller opens it before
// the consensus request (openRound), feeds it the replicas the consensus
// hands over (take) while it waits for the cut, and then either finishes it
// (finish: the verdict) or abandons it (abort). A body is driven from the
// controller goroutine only; its pools run their own.
type roundBody struct {
	c        *Controller
	scope    consensus.Scope
	compare  bool // both replicas in scope: the round has a compare stage
	w        stageWidths
	inline   bool // every stage at width 1: stages run on the controller goroutine
	opts     runtime.CaptureOptions
	exchange func(n, t int) error // the round's exchange step; nil = none
	drained  func()               // runs once when every capture has landed; nil = none

	epoch    uint64          // allocated at the first start; 0 = not yet
	at       [2]int          // target each replica was handed at; -1 = not handed
	readyAt  [2]time.Time    // when each replica's handoff was taken
	started  [2]bool         // the replica's captures were enqueued
	first    int             // replica started first (the sender); -1 = none started
	base     time.Time       // the first start: the stage clocks' zero
	complete bool            // every replica in scope started: no capture will be enqueued
	left     [2]atomic.Int32 // captures of each replica still to land
	injected []sdcFlip       // SDC injections applied at this body's starts

	capQ      chan capItem
	exQ, cmpQ chan int
	done      chan struct{} // closed once every pool has drained
}

// openRound prepares the body of a round over scope. epoch 0 allocates a
// fresh one when the first replica starts.
func (c *Controller) openRound(epoch uint64, scope consensus.Scope, exchange func(n, t int) error, drained func()) *roundBody {
	w := c.stageWidths()
	return &roundBody{
		c:        c,
		scope:    scope,
		compare:  scope[0] && scope[1],
		w:        w,
		inline:   w.capture <= 1 && w.exchange <= 1 && w.compare <= 1,
		exchange: exchange,
		drained:  drained,
		epoch:    epoch,
		at:       [2]int{-1, -1},
		first:    -1,
		opts: runtime.CaptureOptions{
			ChunkSize:    c.cfg.ChunkSize,
			ChunkWorkers: w.chunk,
			Pool:         c.pool,
			// A non-nil pool means the controller created the store and
			// owns its eviction lifecycle exclusively — the same ownership
			// guarantee patch-in-place capture needs (no reader retains
			// Bytes() of an evicted epoch). A caller-supplied store gets
			// neither.
			PatchCapture: c.pool != nil,
		},
	}
}

// take consumes handoffs from the consensus and starts the replicas they
// make startable; it reports whether every replica in scope is now handed
// at one target (the cut is complete). A replica handed below a later
// handoff's target was overtaken by an escalation: what was captured of it
// is of the wrong iteration, so the body starts over under a fresh epoch
// (the exchange never reuses a frame id) and the replica goes back to the
// consensus to park at the new target.
func (b *roundBody) take(hs ...consensus.Handoff) bool {
	now := time.Now()
	for _, h := range hs {
		for rep := 0; rep < 2; rep++ {
			if b.at[rep] < 0 || b.at[rep] >= h.Target {
				continue
			}
			if b.started[rep] {
				b.abort()
				b.epoch, b.started, b.first, b.complete, b.injected = 0, [2]bool{}, -1, false, nil
			}
			b.at[rep] = -1
			b.c.coord.HandBack(rep)
		}
		b.at[h.Replica], b.readyAt[h.Replica] = h.Target, now
	}
	var reps [2]bool
	all := true
	for rep := 0; rep < 2; rep++ {
		all = all && (!b.scope[rep] || b.at[rep] >= 0)
		reps[rep] = b.at[rep] >= 0 && !b.started[rep]
	}
	if reps != [2]bool{} {
		b.start(reps, all)
	}
	return all
}

// start enqueues the captures of the marked replicas (task-major, replica
// order). last says no replica is left to start.
func (b *roundBody) start(reps [2]bool, last bool) {
	c := b.c
	total := len(c.outcomes)
	if b.compare {
		if b.first < 0 {
			c.fire(point.CorePostConsensus, point.Info{Replica: -1, Node: -1, Task: -1})
		}
		// Every task of these replicas is parked: apply their scheduled
		// SDC injections now, so the corruption lands in this capture.
		b.injected = append(b.injected, c.applyPendingSDCTo(reps)...)
	}
	if b.first < 0 {
		c.resetPhases()
		clear(c.verdicts)
		clear(c.outcomes)
		clear(c.capErrs[0])
		clear(c.capErrs[1])
		if b.epoch == 0 {
			b.epoch = c.nextEpoch()
		}
		b.first = 0
		if !reps[0] {
			b.first = 1
		}
		c.sender = b.first
		need := int32(2)
		if b.exchange != nil {
			need++
		}
		for i := range c.need {
			c.need[i].Store(need)
		}
		b.base = time.Now()
		if !b.inline {
			b.launch()
		}
	}
	n := int32(0)
	for rep := 0; rep < 2; rep++ {
		if reps[rep] {
			n++
			b.started[rep] = true
			b.left[rep].Store(int32(total))
			// Quiescent: every task of the replica is parked, so hooks may
			// mutate task state here and the corruption lands in this
			// capture.
			c.fire(point.CoreCapture, point.Info{Replica: rep, Node: -1, Task: -1, Epoch: b.epoch})
		}
	}
	if b.inline {
		for i := 0; i < total; i++ {
			if b.capture(capItem{i, reps, n}) {
				b.arrive(i, n)
			}
		}
		if last && b.drained != nil {
			b.drained()
		}
		if b.exchange != nil && reps[b.first] {
			for i := 0; i < total; i++ {
				if c.capErrs[0][i] == nil && c.capErrs[1][i] == nil {
					b.exchangeTask(i)
				}
			}
		}
	} else {
		for i := 0; i < total; i++ {
			b.capQ <- capItem{i, reps, n}
		}
	}
	if last {
		b.complete = true
		if !b.inline {
			close(b.capQ)
		}
	}
}

// launch starts the worker pools: capture → exchange (the sender's tasks)
// and capture/exchange → compare (a task whose prerequisites all landed).
// Every channel is sized to the number of sends it can ever see, so no
// worker blocks on its successor.
func (b *roundBody) launch() {
	c := b.c
	total := len(c.outcomes)
	b.capQ = make(chan capItem, 2*total)
	if b.exchange != nil {
		b.exQ = make(chan int, total)
	}
	if b.compare {
		b.cmpQ = make(chan int, total)
	}
	b.done = make(chan struct{})
	var capWG, exWG, cmpWG sync.WaitGroup
	pool := func(wg *sync.WaitGroup, width int, run func()) {
		wg.Add(width)
		for range width {
			go func() {
				defer wg.Done()
				run()
			}()
		}
	}
	pool(&capWG, b.w.capture, func() {
		for it := range b.capQ {
			if !b.capture(it) {
				continue
			}
			if b.exQ != nil && it.reps[c.sender] {
				b.exQ <- it.task
			}
			b.arrive(it.task, it.n)
		}
	})
	if b.exQ != nil {
		pool(&exWG, b.w.exchange, func() {
			for i := range b.exQ {
				b.exchangeTask(i)
			}
		})
	}
	if b.cmpQ != nil {
		pool(&cmpWG, b.w.compare, func() {
			for i := range b.cmpQ {
				b.compareTask(i)
			}
		})
	}
	go func() {
		capWG.Wait()
		// complete was set before capQ closed, which happened before the
		// capture workers saw the close and left.
		if b.complete && b.drained != nil {
			b.drained()
		}
		if b.exQ != nil {
			close(b.exQ)
		}
		exWG.Wait()
		if b.cmpQ != nil {
			close(b.cmpQ)
		}
		cmpWG.Wait()
		close(b.done)
	}()
}

// capture runs one capture item, stopping at the first failing replica, and
// reports whether every capture succeeded.
func (b *roundBody) capture(it capItem) bool {
	c := b.c
	tasks := c.cfg.TasksPerNode
	began := time.Now()
	ok := true
	for rep := 0; rep < 2 && ok; rep++ {
		if !it.reps[rep] {
			continue
		}
		addr := runtime.Addr{Replica: rep, Node: it.task / tasks, Task: it.task % tasks}
		if err := c.machine.CaptureTask(addr, b.epoch, c.store, b.opts); err != nil {
			c.capErrs[rep][it.task] = fmt.Errorf("core: capture replica %d: %w", rep, err)
			ok = false
		}
	}
	c.clocks[0].Observe(b.base, began)
	for rep := 0; rep < 2; rep++ {
		if it.reps[rep] && b.left[rep].Add(-1) == 0 {
			if f := testReplicaCaptured.Load(); f != nil {
				(*f)(rep)
			}
		}
	}
	return ok
}

// arrive books n landed prerequisites of task i's compare; in pool mode the
// last one enqueues the compare (inline, finish walks the tasks whose
// prerequisites all landed).
func (b *roundBody) arrive(i int, n int32) {
	if b.c.need[i].Add(-n) == 0 && b.cmpQ != nil {
		b.cmpQ <- i
	}
}

// exchangeTask runs task i's exchange step.
func (b *roundBody) exchangeTask(i int) {
	c := b.c
	tasks := c.cfg.TasksPerNode
	began := time.Now()
	err := b.exchange(i/tasks, i%tasks)
	c.clocks[1].Observe(b.base, began)
	if err != nil {
		c.outcomes[i] = stages.Outcome{Stage: 1, Err: err}
		return
	}
	b.arrive(i, 1)
}

// compareTask runs task i's compare step.
func (b *roundBody) compareTask(i int) {
	c := b.c
	tasks := c.cfg.TasksPerNode
	began := time.Now()
	v := &c.verdicts[i]
	var err error
	v.mismatch, v.chunk, err = c.compareTask(i/tasks, i%tasks, b.epoch)
	c.clocks[2].Observe(b.base, began)
	if err != nil {
		c.outcomes[i] = stages.Outcome{Stage: 2, Err: err}
	}
}

// finish runs (inline) or waits out (pools) what is left of a complete cut
// and returns the round's verdict — first mismatch ("" when clean) with
// its localized chunk, or the first error — leaving the phase clocks
// filled for commit.
func (b *roundBody) finish() (string, int, error) {
	c := b.c
	if b.inline {
		for i := range c.need {
			if c.need[i].Load() == 0 && b.compare {
				b.compareTask(i)
			}
		}
	} else {
		<-b.done
	}
	for i := range c.outcomes {
		for rep := 0; rep < 2; rep++ {
			if err := c.capErrs[rep][i]; err != nil {
				c.outcomes[i] = stages.Outcome{Stage: 0, Err: err}
				break
			}
		}
	}
	if c.cfg.Timeline != nil {
		b.markPipeline()
	}
	if err := stages.FirstFailure(c.outcomes); err != nil {
		return "", -1, err
	}
	for _, v := range c.verdicts {
		if v.mismatch != "" {
			return v.mismatch, v.chunk, nil
		}
	}
	return "", -1, nil
}

// markPipeline records the round's stage split and its schedule: which
// replica parked first and by how much it led the other, which one sent,
// and the post-cut body — last handoff to the last stage drained. Stage
// spans start at the first handoff, so they can begin before the cut is
// complete.
func (b *roundBody) markPipeline() {
	c := b.c
	wall, busy := c.phaseTimes()
	firstParked, lead, cut := b.first, time.Duration(0), b.readyAt[b.first]
	if b.compare {
		firstParked = 0
		if b.readyAt[1].Before(b.readyAt[0]) {
			firstParked = 1
		}
		lead = b.readyAt[1-firstParked].Sub(b.readyAt[firstParked])
		cut = b.readyAt[1-firstParked]
	}
	c.mark(trace.Pipeline, fmt.Sprintf(
		"round e%d: capture %v/%v exchange %v/%v compare %v/%v (busy/wall, %d tasks, widths %d/%d/%d); first-parked r%d lead %v sender r%d body %v",
		b.epoch, busy[0], wall[0], busy[1], wall[1], busy[2], wall[2],
		len(c.outcomes), b.w.capture, b.w.exchange, b.w.compare,
		firstParked, lead, b.first, time.Since(cut)))
}

// abort abandons the body before its cut completed — a hard error or job
// error reached the controller, or an escalation overtook a handoff. What
// is in flight is joined first, so nothing still reads a parked task when
// the caller releases the cut; nothing more is enqueued. SDC injections
// applied at its starts are withdrawn and queued again. Every replica
// captured for the body then has its capture ladder reset: it may keep
// running past a round that will never commit (strong recovery rolls back
// only the crashed replica), and its slots would otherwise splice from the
// burnt capture and patch the committed checkpoint, still live in the
// store, in place.
func (b *roundBody) abort() {
	if b.first < 0 {
		return
	}
	if !b.inline {
		if !b.complete {
			close(b.capQ)
		}
		<-b.done
	}
	b.c.withdrawSDC(b.injected)
	for rep := 0; rep < 2; rep++ {
		if b.started[rep] {
			b.c.machine.ResetCaptureBases(rep)
		}
	}
}

// shipTask is a live round's exchange step for one task: it sends the buddy
// what the comparison needs of the sender's fresh checkpoint (the copy
// compare treats as "shipped over": the replica handed first, replica 0
// when both are handed together) through the hardened link, as one window
// — one round trip per pass over its unacknowledged frames.
//
// Under ChecksumCompare that is the checkpoint's digest, one frame, decoded
// into the task's digest slot; compareTask decides on it. Under FullCompare
// it is the checkpoint, delta-aware against the receiver's retained last
// committed epoch; the reassembled copy is root-verified inside
// shipCheckpoint and then discarded, while the byte comparison keeps
// reading the store's copy.
func (c *Controller) shipTask(epoch uint64, n, t int) error {
	src, err := c.store.Get(c.key(c.sender, n, t, epoch))
	if err != nil {
		return fmt.Errorf("core: ship checkpoint n%d/t%d@e%d: %w", n, t, epoch, err)
	}
	if c.cfg.Comparison == ChecksumCompare {
		if err := c.exch.shipDigest(epoch, n, t, src.Digest(), &c.digests[n*c.cfg.TasksPerNode+t]); err != nil {
			return fmt.Errorf("core: ship digest n%d/t%d@e%d: %w", n, t, epoch, err)
		}
		return nil
	}
	var base *ckptstore.Checkpoint
	if ce := c.committedEpoch; ce > 0 {
		// The buddy usually still holds this task's last committed
		// checkpoint; chunks with matching sums need not cross the link
		// again. A miss (nil) degrades to a full ship.
		base, _ = c.store.Get(c.key(c.sender, n, t, ce))
	}
	if _, err := c.exch.shipCheckpoint(epoch, n, t, src, base); err != nil {
		return fmt.Errorf("core: ship checkpoint n%d/t%d@e%d: %w", n, t, epoch, err)
	}
	return nil
}

// mirrorTask is the recovery round's exchange step for one task: the
// healthy replica's stored checkpoint is mirrored under the crashed
// replica's key — through the hardened link (delta-aware, reassembled copy
// stored) when one is attached, by shared reference otherwise.
func (c *Controller) mirrorTask(crashed int, epoch uint64, n, t int) error {
	ck, err := c.store.Get(c.key(1-crashed, n, t, epoch))
	if err != nil {
		return fmt.Errorf("core: mirror recovery checkpoint: %w", err)
	}
	if c.exch != nil {
		// The crashed side usually still holds the last committed epoch's
		// checkpoint for this task; chunks whose sums match need not cross
		// the lossy link again. A miss (nil base) degrades to a full ship.
		var base *ckptstore.Checkpoint
		if c.committedEpoch > 0 {
			base, _ = c.store.Get(c.key(crashed, n, t, c.committedEpoch))
		}
		ck, err = c.exch.shipCheckpoint(epoch, n, t, ck, base)
		if err != nil {
			return fmt.Errorf("core: exchange recovery checkpoint: %w", err)
		}
	}
	if err := c.store.Put(c.key(crashed, n, t, epoch), ck); err != nil {
		return fmt.Errorf("core: mirror recovery checkpoint: %w", err)
	}
	return nil
}
