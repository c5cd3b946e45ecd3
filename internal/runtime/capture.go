package runtime

import (
	"fmt"
	stdruntime "runtime"

	"acr/internal/ckptstore"
	"acr/internal/stages"
)

// This file routes the machine's state capture and restore through the
// tiered checkpoint store: per-task pup buffers are chunked and
// checksummed at capture time (ckptstore.Capture) and land in a pluggable
// Store keyed by {replica, node, task, epoch}, instead of being handed
// around as flat [][][]byte blobs.

// CaptureOptions parameterizes CaptureReplica. The zero value is a sane
// default: auto-sized worker split, default chunk size, no recycling, fast
// single-pass packing.
type CaptureOptions struct {
	// ChunkSize is the checksum chunk granularity (<= 0 selects
	// checksum.DefaultChunkSize).
	ChunkSize int
	// ChunkWorkers is the inner per-checkpoint checksum parallelism. The
	// two levels split the same cores: when the outer pool already
	// saturates GOMAXPROCS (many tasks per replica, the common case),
	// inner parallelism can only add scheduling overhead, so 1 is right.
	// The single-task-per-node shape is the opposite: the outer pool can
	// use at most NodesPerReplica workers, and chunk-level parallelism is
	// the only way to put the remaining cores on one big buffer.
	// <= 0 auto-sizes to GOMAXPROCS / effective outer workers (min 1),
	// which degenerates to exactly the old hardcoded 1 when the outer
	// pool is saturated.
	ChunkWorkers int
	// Pool, if non-nil, supplies retired checkpoints whose buffers are
	// reused for packing and checksumming (zero-allocation steady state).
	Pool *ckptstore.Pool
	// PatchCapture lets write-tracked tasks patch their two-epochs-ago
	// capture buffer in place instead of memcpy'ing every clean byte from
	// the previous stream. Only set it when the caller owns the store's
	// lifecycle exclusively: every epoch older than the newest committed
	// one must be evicted before the next capture begins, and no reader may
	// retain Bytes() of an evicted epoch without a Checkpoint.Borrow (a
	// borrowed base is never patched) — the controller's commit protocol
	// guarantees exactly this. A store whose checkpoints outlive eviction
	// (a caller-supplied store, a delta tier retaining anchors) must leave
	// it off, or captures would scribble over retained views.
	PatchCapture bool

	// workers is CaptureReplica's outer task-parallel worker count (<= 0
	// selects GOMAXPROCS, capped at the task count). Serialization of one
	// task's state is inherently serial, but nothing couples distinct
	// tasks. Only this package's tests set it.
	workers int
}

// CaptureReplica packs every task of the replica and stores the chunked,
// checksummed checkpoints under the epoch. The caller must guarantee the
// replica is quiescent (parked in Progress, completed, or stopped), same
// as PackTask. Tasks are packed and checksummed concurrently per
// opts.workers and opts.ChunkWorkers, through stages.Run; each
// task's buffer comes from opts.Pool when one is attached, and packing
// skips the Sizing traversal whenever the task's previous packed size
// still fits (pup.PackInto). Every task is attempted; when several fail,
// the error returned is the lowest (node, task)'s, whatever the worker
// count.
func (m *Machine) CaptureReplica(rep int, epoch uint64, st ckptstore.Store, opts CaptureOptions) error {
	tasks := m.cfg.TasksPerNode
	out := make([]stages.Outcome, m.cfg.NodesPerReplica*tasks)
	workers := opts.workers
	if workers <= 0 {
		workers = stdruntime.GOMAXPROCS(0)
	}
	workers = min(workers, len(out))
	chunkWorkers := opts.ChunkWorkers
	if chunkWorkers <= 0 {
		chunkWorkers = max(1, stdruntime.GOMAXPROCS(0)/workers)
	}
	stages.Run(out, workers, func(i int) error {
		addr := Addr{Replica: rep, Node: i / tasks, Task: i % tasks}
		return m.captureAndStore(addr, epoch, st, opts, chunkWorkers)
	})
	return stages.FirstFailure(out)
}

// CaptureTask packs one task's state and stores its chunked, checksummed
// checkpoint under the epoch — the per-(node, task) capture step the round
// body in internal/core drives, where a task's checkpoint can flow into
// exchange and comparison as soon as it exists instead of waiting for the
// whole replica. Quiescence rules match CaptureReplica:
// the task must be parked, completed, or its replica stopped. Safe to call
// concurrently for distinct tasks; opts.ChunkWorkers <= 0 selects 1 (the
// caller is assumed to already be task-parallel).
func (m *Machine) CaptureTask(addr Addr, epoch uint64, st ckptstore.Store, opts CaptureOptions) error {
	chunkWorkers := opts.ChunkWorkers
	if chunkWorkers <= 0 {
		chunkWorkers = 1
	}
	return m.captureAndStore(addr, epoch, st, opts, chunkWorkers)
}

// captureAndStore is the shared per-task capture body behind
// CaptureReplica's stage and the exported CaptureTask hook.
func (m *Machine) captureAndStore(addr Addr, epoch uint64, st ckptstore.Store, opts CaptureOptions, chunkWorkers int) error {
	ck, err := m.captureTaskInto(addr, opts.Pool, m.sizeHint(addr), opts.ChunkSize, chunkWorkers, opts.PatchCapture)
	if err != nil {
		return fmt.Errorf("runtime: capture %v: %w", addr, err)
	}
	key := ckptstore.Key{Replica: addr.Replica, Node: addr.Node, Task: addr.Task, Epoch: epoch}
	if err := st.Put(key, ck); err != nil {
		return fmt.Errorf("runtime: store %v: %w", key, err)
	}
	return nil
}

// RestartReplicaFromStore restores every task of the replica from the
// checkpoints stored under the epoch and launches fresh incarnations. The
// checkpoints are read under the source replica's keys: from, when given,
// else rep itself. A durable tier keeps one copy per compared pair under
// replica 0's keys, so a restore from it passes 0 for either replica. (The
// source is a trailing optional parameter so that callers restoring a
// replica from its own keys keep the three-argument form.) The epoch must
// be complete: a missing task checkpoint (ErrNotFound) is an error, not
// factory state — restarting part of a replica from factory state would
// silently desynchronize it from its buddy. Callers that lose an epoch
// (buddy-pair double faults dropping the in-memory copies) escalate to an
// older tier instead. Every checkpoint is fetched before any task restarts,
// so a failed restore leaves the replica stopped and retryable against
// another store. The replica must be quiescent (StopReplica).
func (m *Machine) RestartReplicaFromStore(rep int, epoch uint64, st ckptstore.Store, from ...int) error {
	src := rep
	if len(from) > 0 {
		src = from[0]
	}
	nodes, tasks := m.cfg.NodesPerReplica, m.cfg.TasksPerNode
	ckpts := make([][][]byte, nodes)
	for n := 0; n < nodes; n++ {
		ckpts[n] = make([][]byte, tasks)
		for t := 0; t < tasks; t++ {
			ck, err := st.Get(ckptstore.Key{Replica: src, Node: n, Task: t, Epoch: epoch})
			if err != nil {
				return fmt.Errorf("runtime: restore r%d/n%d/t%d@e%d: %w", src, n, t, epoch, err)
			}
			ckpts[n][t] = ck.Bytes()
		}
	}
	return m.RestartReplica(rep, ckpts)
}
