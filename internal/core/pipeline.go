package core

import (
	"fmt"
	stdruntime "runtime"
	"sync/atomic"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/runtime"
	"acr/internal/stages"
	"acr/internal/trace"
)

// This file is the one checkpoint-round body. Every round — the compared
// two-replica round and the trusted one-replica recovery round — pushes
// each (node, task) through capture → exchange → compare (runRound), and
// the only thing that varies is how wide each stage runs (stageWidths).
// The stages run on internal/stages:
//
//   - at width 1 everywhere the stages run inline on the controller
//     goroutine, one after the other in dense (node, task) order — the
//     paper's barrier round, with no goroutine or channel per round;
//   - at any larger width the stages are channel-connected worker pools
//     and a task enters exchange the moment its capture lands and compare
//     the moment its exchange verifies, so capture CPU, link flight time
//     and compare CPU of different tasks overlap.
//
// The verdict does not depend on the width: there is no early
// cancellation, every task's outcome and compare verdict lands in a dense
// slice, and errors are resolved in stage order and then (node, task)
// order, so the lowest failing stage's lowest (node, task) wins exactly as
// in a serial walk.
// What a live round's exchange ships is what its comparison needs: under
// checksum comparison a task's digest, which the compare stage then
// decides on — the verdict rests on what crossed the link; under full
// comparison the checkpoint bytes, root-verified against their source and
// discarded, while the byte comparison reads the store's copy.
// Semi-blocking (§4.2 [27]) is the same round with an earlier release
// point: the cut is released when the capture stage has drained.

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

// testStageWidth, when positive, forces every stage to that width, chaos
// runs included. It is a test seam: nothing outside _test files stores it.
var testStageWidth atomic.Int32

// stageWidths sizes the round's stages from GOMAXPROCS, the task count and
// the replica state-size hint. A chaos hook pins every stage to 1 — the
// single scheduling pin in the controller: fault campaigns count hook
// firings per (point, node, task), and the inline dense-order walk is what
// makes those counts a function of the seed alone.
func (c *Controller) stageWidths() stageWidths {
	total := c.cfg.NodesPerReplica * c.cfg.TasksPerNode
	clamp := func(w int) int { return max(1, min(w, total)) }
	if w := int(testStageWidth.Load()); w > 0 {
		return stageWidths{clamp(w), clamp(w), clamp(w), 1}
	}
	if c.cfg.Chaos != nil {
		return stageWidths{1, 1, 1, 1}
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

// runRound is the round body shared by normalRound and recoveryCheckpoint:
// capture every replica in scope, run the exchange stage if the round has
// one, compare buddies when both replicas are in scope. exchange is the
// round's per-task exchange step (nil = none); captureDrained, if non-nil,
// runs once when the last capture has landed. It returns the round's
// verdict — first mismatch ("" when clean) with its localized chunk, or
// the first error — and leaves the phase clocks filled for commit.
func (c *Controller) runRound(epoch uint64, scope consensus.Scope, exchange func(n, t int) error, captureDrained func()) (string, int, error) {
	tasks := c.cfg.TasksPerNode
	w := c.stageWidths()
	opts := runtime.CaptureOptions{
		ChunkSize:    c.cfg.ChunkSize,
		ChunkWorkers: w.chunk,
		Pool:         c.pool,
		// A non-nil pool means the controller created the store and owns
		// its eviction lifecycle exclusively — the same ownership guarantee
		// patch-in-place capture needs (no reader retains Bytes() of an
		// evicted epoch). A caller-supplied store gets neither.
		PatchCapture: c.pool != nil,
	}
	for rep := 0; rep < 2; rep++ {
		if scope[rep] {
			// Quiescent: every task in scope is parked, so hooks may mutate
			// task state here and the corruption lands in this capture.
			c.fire(point.CoreCapture, point.Info{Replica: rep, Node: -1, Task: -1, Epoch: epoch})
		}
	}
	// Once the consensus cut has parked everything, the two replicas of a
	// task share nothing: a capture worker packs them back to back, and
	// replica 0's store write always precedes replica 1's for the same
	// (node, task) — the order Both-mode corruption hooks rely on.
	run := []stages.Stage{{Width: w.capture, Clock: &c.clocks[0], Drained: captureDrained, Run: func(i int) error {
		for rep := 0; rep < 2; rep++ {
			if !scope[rep] {
				continue
			}
			addr := runtime.Addr{Replica: rep, Node: i / tasks, Task: i % tasks}
			if err := c.machine.CaptureTask(addr, epoch, c.store, opts); err != nil {
				return fmt.Errorf("core: capture replica %d: %w", rep, err)
			}
		}
		return nil
	}}}
	if exchange != nil {
		run = append(run, stages.Stage{Width: w.exchange, Clock: &c.clocks[1], Run: func(i int) error {
			return exchange(i/tasks, i%tasks)
		}})
	}
	clear(c.verdicts)
	if scope[0] && scope[1] {
		run = append(run, stages.Stage{Width: w.compare, Clock: &c.clocks[2], Run: func(i int) error {
			var err error
			c.verdicts[i].mismatch, c.verdicts[i].chunk, err = c.compareTask(i/tasks, i%tasks, epoch)
			return err
		}})
	}
	stages.Run(c.outcomes, run...)
	if c.cfg.Timeline != nil {
		wall, busy := c.phaseTimes()
		c.mark(trace.Pipeline, fmt.Sprintf(
			"round e%d: capture %v/%v exchange %v/%v compare %v/%v (busy/wall, %d tasks, widths %d/%d/%d)",
			epoch, busy[0], wall[0], busy[1], wall[1], busy[2], wall[2],
			len(c.outcomes), w.capture, w.exchange, w.compare))
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

// shipTask is a live round's exchange step for one task: it sends the buddy
// what the comparison needs of replica 0's fresh checkpoint (the copy
// compare treats as "shipped over") through the hardened link, as one
// window — one round trip per pass over its unacknowledged frames.
//
// Under ChecksumCompare that is the checkpoint's digest, one frame, decoded
// into the task's digest slot; compareTask decides on it. Under FullCompare
// it is the checkpoint, delta-aware against the receiver's retained last
// committed epoch; the reassembled copy is root-verified inside
// shipCheckpoint and then discarded, while the byte comparison keeps
// reading the store's copy.
func (c *Controller) shipTask(epoch uint64, n, t int) error {
	src, err := c.store.Get(c.key(0, n, t, epoch))
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
		base, _ = c.store.Get(c.key(0, n, t, ce))
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
