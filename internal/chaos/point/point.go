// Package point defines ACR's labeled fault-injection points: the named
// places in the runtime, controller, and checkpoint store where the chaos
// engine (internal/chaos) may observe or perturb an execution. It is a
// dependency-free leaf so that internal/runtime, internal/core, and
// internal/ckptstore can fire points without importing the engine.
//
// A point firing is synchronous: the instrumented code calls Hook.Fire at
// the point and continues when it returns. Hooks must therefore be fast on
// the non-injecting path and safe for concurrent use (message delivery and
// progress points fire from every task's goroutine).
package point

import "sort"

// ID names one injection point. The catalog below is the complete set; a
// campaign coverage map reports which of these a run exercised.
type ID string

// The injection-point catalog. Quiescence per point:
//
//   - Quiescent points (CorePostConsensus, CoreCapture, CoreRecovery) fire
//     while every task in scope is parked by the consensus gate; hooks may
//     mutate task or checkpoint state race-free.
//   - All other points fire while the application is running; hooks must
//     restrict themselves to actions that are safe against live state
//     (node crashes, heartbeat delays, payload value replacement).
const (
	// RuntimeDeliver fires on every message delivery attempt, before the
	// payload is enqueued at the destination. Info carries the destination
	// address and the payload; a hook may replace Info.Payload to corrupt
	// the message in flight.
	RuntimeDeliver ID = "runtime.deliver"
	// RuntimeProgress fires when a task reports iteration progress, before
	// the consensus gate sees the report. Info.Iter is the iteration.
	RuntimeProgress ID = "runtime.progress"
	// RuntimeHeartbeat fires when a failure-detector tick reaches a live
	// physical node, once per node per tick and before the tick looks for
	// dead nodes. Info.Node is the physical node id; a hook that sleeps
	// here stalls the tick, which delays detection and nothing else.
	RuntimeHeartbeat ID = "runtime.heartbeat"
	// CorePreConsensus fires when the controller begins a periodic
	// checkpoint round, before the consensus cut is requested.
	CorePreConsensus ID = "core.pre_consensus"
	// CorePostConsensus fires once the cut is ready: every task in scope
	// is parked, nothing has been captured yet. Quiescent.
	CorePostConsensus ID = "core.post_consensus"
	// CoreCapture fires per replica inside captureScope, immediately
	// before the replica's state is packed into the store. Quiescent.
	CoreCapture ID = "core.capture"
	// CoreRecovery fires at the start of recoveryCheckpoint, before the
	// healthy replica's trusted checkpoint is requested — the medium/weak
	// recovery window of §2.3.
	CoreRecovery ID = "core.recovery"
	// CoreRestart fires on every replica restart — ladder rollback, mirror
	// restart, RestoreEpoch and the Config.ResumeEpochs warm start — once
	// the stopped replica is quiescent and before it is relaunched.
	// Info.Replica is the restarting replica; Info.Epoch is the epoch it
	// restarts from (the committed one for a ladder walk, 0 for factory
	// state). Task progress of that replica may legitimately regress after it.
	CoreRestart ID = "core.restart"
	// CoreCommit fires after a checkpoint epoch is committed (verified or
	// trusted). Info.Epoch is the committed epoch.
	CoreCommit ID = "core.commit"
	// CoreFlush fires after a committed epoch has been flushed completely
	// to the durable tier of the recovery ladder (core.Config.FlushEvery).
	// Info.Epoch is the flushed epoch. The epoch is restorable from the
	// durable tier from this firing on.
	CoreFlush ID = "core.flush"
	// CoreFold fires when spare exhaustion folds a failed logical node's
	// tasks onto a surviving physical node of the same replica (degraded
	// mode). Info.Replica/Info.Node identify the folded logical node;
	// Info.Task is the logical node it was folded onto.
	CoreFold ID = "core.fold"
	// NetFrame fires per simulated link frame of the hardened checkpoint
	// exchange, before the frame enters the lossy link model. Info.Epoch /
	// Node / Task address the transfer, Info.Iter is the chunk index (-1
	// for the compare-result message, -2 for a checksum digest); a hook
	// may set Info.Drop to force-drop the
	// frame regardless of the link's loss probability.
	NetFrame ID = "net.frame"
	// StoreWrite fires after a checkpoint is accepted by Store.Put; a hook
	// may corrupt the stored copy (at-rest corruption).
	StoreWrite ID = "ckptstore.write"
	// StoreRead fires after a checkpoint is materialized by Store.Get.
	StoreRead ID = "ckptstore.read"
	// RemotePut fires before the simulated remote object store accepts an
	// upload (ckptstore.Remote.Put). Info carries the key; a hook may set
	// Info.Drop to force-fail this one operation with a transient error.
	RemotePut ID = "remote.put"
	// RemoteGet fires before the simulated remote object store serves a
	// download (ckptstore.Remote.Get). Info carries the key; a hook may set
	// Info.Drop to force-fail this one operation with a transient error.
	RemoteGet ID = "remote.get"
	// RemoteDark fires when the simulated remote transitions into or out of
	// dark mode (total unavailability). Info.Iter is the remaining dark op
	// budget on entry (0 = dark until further notice) and -1 on recovery.
	RemoteDark ID = "remote.dark"
)

// All returns the complete point catalog, sorted by ID.
func All() []ID {
	ids := []ID{
		RuntimeDeliver, RuntimeProgress, RuntimeHeartbeat,
		CorePreConsensus, CorePostConsensus, CoreCapture,
		CoreRecovery, CoreRestart, CoreCommit,
		CoreFlush, CoreFold, NetFrame,
		StoreWrite, StoreRead,
		RemotePut, RemoteGet, RemoteDark,
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Info carries the context of one firing. Field validity depends on the
// point; unused fields are zero. Replica/Node/Task default to -1 where the
// firing has no task context.
type Info struct {
	Replica int
	Node    int
	Task    int
	Epoch   uint64
	Iter    int
	// Payload is point-specific: the message payload at RuntimeDeliver
	// (hooks may replace it), the *ckptstore.Checkpoint at StoreWrite /
	// StoreRead. Nil elsewhere.
	Payload any
	// Drop is set by hooks at NetFrame to force-drop the frame before it
	// reaches the link model (exchange loss injection), and at RemotePut /
	// RemoteGet to force-fail the remote operation with a transient error.
	// Ignored elsewhere.
	Drop bool
}

// Hook receives point firings. A nil Hook everywhere means chaos is off;
// instrumented code must nil-check before firing.
type Hook interface {
	Fire(id ID, info *Info)
}

// HookFunc adapts a function to the Hook interface.
type HookFunc func(id ID, info *Info)

// Fire implements Hook.
func (f HookFunc) Fire(id ID, info *Info) { f(id, info) }
