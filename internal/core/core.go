// Package core implements ACR itself: the automatic checkpoint/restart
// framework of the paper. It drives a replicated application on the
// message-driven runtime, takes coordinated in-memory checkpoints through
// the §2.2 consensus protocol, detects silent data corruption by comparing
// buddy checkpoints (byte-for-byte or by Fletcher checksum, §4.2), recovers
// from fail-stop hard errors under the strong / medium / weak resilience
// schemes (§2.3), and adapts the checkpoint interval to the observed
// failure stream (§2.2).
//
// The Controller is application- and user-oblivious: applications only
// implement runtime.Program (a Run loop plus a Pup method) and call
// ctx.Progress once per iteration.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/ckptstore"
	"acr/internal/consensus"
	"acr/internal/failure"
	"acr/internal/netsim"
	"acr/internal/runtime"
	"acr/internal/stages"
	"acr/internal/trace"
)

// ErrUnrecoverable reports a hard error the recovery escalation ladder
// cannot climb out of: every tier — buddy in-memory checkpoint, durable
// flush of the committed epoch, older durable epochs — was empty or
// unusable, and (when degraded mode is off) no spare was available. The
// job cannot continue, but the controller returns instead of hanging.
var ErrUnrecoverable = errors.New("core: unrecoverable hard error")

// Scheme is one of ACR's three resilience levels (§2.3).
type Scheme int

// Resilience schemes.
const (
	// Strong rolls the crashed replica back to the previous verified
	// checkpoint: 100% SDC protection, maximal rework.
	Strong Scheme = iota
	// Medium forces an immediate checkpoint of the healthy replica and
	// restarts the crashed replica from it: no rework, but SDC between
	// the previous and the forced checkpoint goes undetected.
	Medium
	// Weak waits for the next periodic checkpoint and recovers the
	// crashed replica from it: zero recovery overhead, a full checkpoint
	// period without SDC protection. Without a checkpoint timer
	// (CheckpointInterval <= 0) there is no next periodic checkpoint to
	// wait for, and a failure is recovered as Medium recovers it.
	Weak
)

func (s Scheme) String() string {
	switch s {
	case Strong:
		return "strong"
	case Medium:
		return "medium"
	case Weak:
		return "weak"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Comparison selects the SDC-detection data exchange (§4.2).
type Comparison int

// Comparison methods.
const (
	// FullCompare ships the whole checkpoint to the buddy and compares
	// byte by byte (precise mismatch attribution, mapping-sensitive
	// network cost at scale).
	FullCompare Comparison = iota
	// ChecksumCompare ships only a position-dependent Fletcher checksum.
	ChecksumCompare
)

func (c Comparison) String() string {
	switch c {
	case FullCompare:
		return "full"
	case ChecksumCompare:
		return "checksum"
	}
	return fmt.Sprintf("Comparison(%d)", int(c))
}

// Estimator selects the failure-rate model behind the adaptive interval
// (§2.2: "fit the actual observed failures during application execution to
// a certain distribution").
type Estimator int

// Estimators.
const (
	// TrendEstimator fits a power-law (Crow-AMSAA) trend to the failure
	// times and uses the current intensity — responsive to a globally
	// decreasing or increasing rate. The default.
	TrendEstimator Estimator = iota
	// MeanEstimator uses the plain average inter-failure time — the
	// classical stationary assumption.
	MeanEstimator
	// WeibullEstimator fits an i.i.d. Weibull renewal process to the
	// gaps and uses the reciprocal hazard at the current failure-free
	// age.
	WeibullEstimator
)

func (e Estimator) String() string {
	switch e {
	case TrendEstimator:
		return "trend"
	case MeanEstimator:
		return "mean"
	case WeibullEstimator:
		return "weibull"
	}
	return fmt.Sprintf("Estimator(%d)", int(e))
}

// Config describes an ACR job.
type Config struct {
	// Machine shape.
	NodesPerReplica int
	TasksPerNode    int
	Spares          int
	// Factory builds the application tasks.
	Factory runtime.Factory
	// Scheme is the resilience level.
	Scheme Scheme
	// Comparison is the SDC-detection method.
	Comparison Comparison
	// CheckpointInterval is the base period between automatic
	// checkpoints. Zero disables periodic checkpointing (hard-error-only
	// mode, Figure 5a).
	CheckpointInterval time.Duration
	// Adaptive re-derives the interval from the observed failure rate
	// after every failure (§2.2): tau = sqrt(2 * delta * MTBF_current),
	// clamped to [CheckpointInterval/8, 8*CheckpointInterval] (1 ms and
	// 1 h where the interval is zero; see intervalBounds).
	Adaptive bool
	// Estimator selects how the current MTBF is derived from the failure
	// history in Adaptive mode.
	Estimator Estimator
	// SemiBlocking releases the application as soon as the round's capture
	// stage has drained and performs the exchange and the inter-replica
	// comparison while the application runs — the asynchronous
	// checkpointing optimization of §4.2 [27]. Corruption found by the
	// overlapped comparison still rolls both replicas back to the
	// previous verified checkpoint; the application merely loses the
	// work it did during the comparison window.
	SemiBlocking bool
	// Heartbeat failure detection parameters (see runtime.Config).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Timeline, if non-nil, receives checkpoint/failure/restart events.
	Timeline *trace.Timeline
	// Store is the checkpoint storage tier holding every committed (and
	// in-flight) checkpoint, keyed by {replica, node, task, epoch}. Nil
	// selects the in-memory buddy tier (ckptstore.NewMem), the paper's
	// double in-memory checkpoint; a disk tier composes with any
	// scheme/comparison combination.
	Store ckptstore.Store
	// ChunkSize is the checkpoint chunk granularity for parallel
	// checksumming and corruption localization; <= 0 selects
	// checksum.DefaultChunkSize (64 KiB).
	ChunkSize int
	// FlushEvery, when positive, flushes every K-th committed epoch to a
	// durable second tier — the escalation target when a buddy-pair double
	// fault destroys both in-memory copies of a node's checkpoints. The
	// flush borrows the committed checkpoints (ckptstore.Checkpoint.Borrow:
	// the hot commit path's buffer recycling leaves them alone until the
	// writer is done, and nothing is copied) and writes them on a
	// background goroutine, joined before any ladder walk and at Run end
	// (and, under a chaos hook, before the next round starts). Zero
	// disables the durable tier.
	FlushEvery int
	// FlushRetain bounds how many complete flushed epochs the durable
	// tier keeps (older ones are evicted after each successful flush);
	// <= 0 selects 2. Deeper retention buys deeper rollback at more disk.
	FlushRetain int
	// FlushStore is the store behind the durable tier. The tier exists iff
	// FlushEvery > 0: a FlushStore with FlushEvery zero is ignored, and nil
	// with FlushEvery > 0 selects a controller-owned ckptstore.Disk in a
	// temporary directory, removed at Run end.
	FlushStore ckptstore.Store
	// RemoteStore, when non-nil, attaches a remote checkpoint tier — tier 3
	// of the recovery ladder, below buddy memory and the local durable
	// flush. Every RemoteFlushEvery-th committed epoch is borrowed and
	// written to it; recovery walks its complete epochs newest-first only
	// after every local tier failed. The store is used as given (wrap it in
	// ckptstore.NewResilient for retry/backoff/breaker hardening against an
	// unreliable backend); a dark or failing remote costs remote flush
	// errors, never job progress.
	RemoteStore ckptstore.Store
	// RemoteFlushEvery is the remote tier's flush cadence in committed
	// epochs. Zero with RemoteStore set inherits max(FlushEvery, 1) —
	// remote bandwidth is usually the scarcer resource, so a sparser
	// explicit cadence is typical.
	RemoteFlushEvery int
	// RemoteRetain bounds how many complete remote epochs are kept
	// (older ones evicted after each successful remote flush); <= 0
	// selects 2.
	RemoteRetain int
	// ResumeEpochs, when non-empty, warm-starts the job from durable
	// checkpoints instead of factory state: Run restores both replicas
	// from the newest usable epoch in the list, read from the durable flush
	// tier (so FlushEvery must be positive), walking to older epochs when a
	// restore fails — the same escalation the recovery ladder uses, applied
	// at job start. Epochs that turn out corrupt or incomplete are skipped;
	// if every one is unusable the job falls back to a cold start. The
	// usable epochs also seed the ladder's durable-epoch index so later
	// double faults can land on them. The outcome is reported in
	// Stats.ResumedEpoch.
	ResumeEpochs []uint64
	// Degraded enables Charm++-style shrink on spare exhaustion: instead
	// of failing with ErrUnrecoverable, the failed node's tasks are folded
	// onto the least-loaded survivor in the same replica and the job
	// continues degraded. Controller.FreeSpare re-expands folded nodes
	// when capacity returns.
	Degraded bool
	// OnFold, if non-nil, is called (on the controller goroutine) after a
	// failed node has been folded onto a survivor — i.e. each time the job
	// enters or deepens degraded mode. A fleet scheduler uses it to broker
	// a replacement spare from the shared pool (Controller.FreeSpare); the
	// callback must not block on the controller itself.
	OnFold func()
	// Exchange, when non-nil, routes the recovery-checkpoint mirror and
	// the per-round compare-result message (and, with ShipCheckpoints, each
	// live round's buddy data) through a lossy netsim link
	// with per-chunk acknowledgements, bounded-retry resend with capped
	// exponential backoff, and idempotent receive. Nil keeps the direct
	// in-process store path.
	Exchange *ExchangeConfig
	// Chaos, if non-nil, receives fault-injection point firings at the
	// controller's protocol-phase boundaries (consensus, capture,
	// recovery, restart, commit) and is forwarded to the runtime and the
	// checkpoint store. See internal/chaos.
	Chaos point.Hook
}

// intervalBounds is the adaptive interval's clamp: an eighth of the base
// interval up to eight times it, with 1 ms and 1 h standing in for a
// zero bound.
func (c *Config) intervalBounds() (lo, hi time.Duration) {
	lo, hi = c.CheckpointInterval/8, 8*c.CheckpointInterval
	if lo <= 0 {
		lo = time.Millisecond
	}
	if hi <= 0 {
		hi = time.Hour
	}
	return lo, hi
}

func (c *Config) validate() error {
	switch {
	case c.NodesPerReplica <= 0 || c.TasksPerNode <= 0:
		return fmt.Errorf("core: invalid machine shape %dx%d", c.NodesPerReplica, c.TasksPerNode)
	case c.Factory == nil:
		return fmt.Errorf("core: Factory is required")
	case c.Scheme < Strong || c.Scheme > Weak:
		return fmt.Errorf("core: unknown scheme %d", c.Scheme)
	}
	if c.FlushEvery < 0 {
		return fmt.Errorf("core: negative FlushEvery")
	}
	if c.FlushEvery > 0 && c.FlushRetain <= 0 {
		c.FlushRetain = 2
	}
	if c.RemoteFlushEvery < 0 {
		return fmt.Errorf("core: negative RemoteFlushEvery")
	}
	if c.RemoteFlushEvery > 0 && c.RemoteStore == nil {
		return fmt.Errorf("core: RemoteFlushEvery set but no RemoteStore")
	}
	if c.RemoteStore != nil {
		if c.RemoteFlushEvery == 0 {
			c.RemoteFlushEvery = c.FlushEvery
			if c.RemoteFlushEvery <= 0 {
				c.RemoteFlushEvery = 1
			}
		}
		if c.RemoteRetain <= 0 {
			c.RemoteRetain = 2
		}
	}
	if len(c.ResumeEpochs) > 0 && c.FlushEvery <= 0 {
		return fmt.Errorf("core: ResumeEpochs set but no durable tier to resume from (set FlushEvery)")
	}
	if c.Exchange != nil {
		if err := c.Exchange.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a completed run. The JSON tags are a stable
// lower_snake schema — the acrd HTTP API and metrics exporter serve these
// fields verbatim, so renaming a tag is a breaking API change; the
// golden-encoding test (stats_json_test.go) pins the schema.
type Stats struct {
	Checkpoints     int             `json:"checkpoints"`  // committed checkpoint rounds
	SDCDetected     int             `json:"sdc_detected"` // mismatches that forced a double rollback
	HardErrors      int             `json:"hard_errors"`  // fail-stop failures recovered
	Rollbacks       int             `json:"rollbacks"`    // replica restarts from a checkpoint (any cause)
	SparesUsed      int             `json:"spares_used"`
	AbortedRounds   int             `json:"aborted_rounds"` // checkpoint rounds interrupted by failures
	Predicted       int             `json:"predicted"`      // checkpoints taken on failure predictions (§2.2)
	FinalInterval   time.Duration   `json:"final_interval_ns"`
	CheckpointTimes []time.Duration `json:"checkpoint_times_ns"` // wall duration of each committed round
	// BlockedTimes has one entry per committed compared round (trusted
	// recovery rounds, which park one replica only, add none): the wall time
	// from the consensus request to the round's verdict — the last stage
	// draining — or, under SemiBlocking, to the capture stage draining. The
	// verdict message, commit and the flush borrow that follow also keep a
	// blocking round's application parked until the cut is released; they
	// are not counted here.
	BlockedTimes []time.Duration `json:"blocked_times_ns"`
	// CaptureTimes / ExchangeTimes / CompareTimes are each committed round's
	// stage spans (parallel arrays with CheckpointTimes): first task
	// entering the stage to last task leaving it — packing+checksumming the
	// replicas, moving checkpoints or their digests over the link (live-round
	// shipping or the recovery mirror; zero when the round has no exchange
	// stage), and
	// deciding match/mismatch. At stage width 1 the spans follow one another;
	// wider, they overlap, so their sum can exceed the round's wall time.
	// A replica is captured as soon as its own tasks park, so the spans can
	// begin before the other replica reaches the cut.
	CaptureTimes  []time.Duration `json:"capture_times_ns"`
	ExchangeTimes []time.Duration `json:"exchange_times_ns"`
	CompareTimes  []time.Duration `json:"compare_times_ns"`
	// CaptureBusyTimes / ExchangeBusyTimes / CompareBusyTimes record, per
	// round, each stage's summed per-task time (parallel arrays with the
	// spans above). busy > span means tasks overlapped inside the stage. At
	// width 1 busy is the span minus the gaps between tasks. Exchange busy
	// additionally includes the store fetches the comparison makes (the
	// bytes a real machine ships between buddies), which also sit inside
	// compare busy.
	CaptureBusyTimes  []time.Duration `json:"capture_busy_times_ns"`
	ExchangeBusyTimes []time.Duration `json:"exchange_busy_times_ns"`
	CompareBusyTimes  []time.Duration `json:"compare_busy_times_ns"`
	// PackFastPath / PackSlowPath count task packs that skipped the
	// Sizing traversal via the size-hint fast path versus two-pass packs.
	PackFastPath int64 `json:"pack_fast_path"`
	PackSlowPath int64 `json:"pack_slow_path"`
	// CaptureChunksPacked / CaptureChunksReused split the chunks of every
	// tracked (dirty-spliced) capture into recomputed-and-repacked versus
	// spliced from the previous epoch; CaptureBytesReused counts the packed
	// bytes not re-encoded — copied from the previous stream, or, under
	// patch-in-place capture (a controller-owned store), left untouched in
	// the buffer retained from two epochs ago.
	// Untracked captures contribute to neither side (they never splice).
	CaptureChunksPacked int64 `json:"capture_chunks_packed"`
	CaptureChunksReused int64 `json:"capture_chunks_reused"`
	CaptureBytesReused  int64 `json:"capture_bytes_reused"`
	// DirtyRatio is CaptureChunksPacked over the total chunks tracked
	// captures handled — the fraction of state that actually changed per
	// round, the quantity the incremental path's cost is proportional to.
	// 1 when no capture ever spliced (all-dirty fallback throughout).
	DirtyRatio float64 `json:"dirty_ratio"`
	// ExchangeChunksShipped / ExchangeChunksReused count checkpoint chunks
	// (recovery mirrors, full-compare live rounds) that crossed the
	// hardened exchange versus chunks the receiver spliced from its
	// retained base checkpoint (same chunk sum). Checksum digests count in
	// neither. Zero when Config.Exchange is nil.
	ExchangeChunksShipped int64 `json:"exchange_chunks_shipped"`
	ExchangeChunksReused  int64 `json:"exchange_chunks_reused"`
	// Pool is the checkpoint-recycling pool's counter snapshot (zero when
	// no pool was attached).
	Pool    ckptstore.PoolCounters `json:"pool"`
	Elapsed time.Duration          `json:"elapsed_ns"`
	// StoreName identifies the checkpoint-store backend the run used.
	StoreName string `json:"store_name"`
	// Store is the checkpoint store's counter snapshot at run end: bytes
	// written/read, chunks stored, cumulative compare time, and the last
	// localized corrupted chunk. Its Compares / Mismatches count only the
	// verdicts reached inside the store: a checksum round whose digests
	// cross a link (ExchangeConfig.ShipCheckpoints) decides on the received
	// digest and costs the store a Get, not a Compare — zero compares there
	// does not mean no comparisons; SDCDetected and LocalizedChunks count
	// every verdict.
	Store ckptstore.Counters `json:"store"`
	// LocalizedChunks records, per detected SDC, the chunk index the
	// two-phase comparison attributed the corruption to (-1 when the
	// mismatch could not be localized to one chunk).
	LocalizedChunks []int `json:"localized_chunks"`
	// TierRecoveries counts replica restores per escalation-ladder tier:
	// [0] buddy in-memory checkpoint at the committed epoch, [1] durable
	// flush of the committed epoch, [2] an older complete durable epoch,
	// [3] a remote-tier epoch (every local tier exhausted first).
	TierRecoveries [4]int `json:"tier_recoveries"`
	// RollbackDepths records, per ladder restore, how many committed
	// epochs the restore point lies behind the newest commit (0 for
	// tiers 0 and 1); MaxRollbackDepth is its maximum.
	RollbackDepths   []int `json:"rollback_depths"`
	MaxRollbackDepth int   `json:"max_rollback_depth"`
	// FlushedEpochs / FlushErrors count durable-tier flush completions
	// and failures; BuddyPairLosses counts buddy pairs whose in-memory
	// checkpoints were both destroyed by a double fault.
	FlushedEpochs   int `json:"flushed_epochs"`
	FlushErrors     int `json:"flush_errors"`
	BuddyPairLosses int `json:"buddy_pair_losses"`
	// RemoteFlushedEpochs / RemoteFlushErrors count remote-tier (tier 3)
	// flush completions and failures; Remote is the resilient remote
	// wrapper's retry/breaker/failover counter snapshot (zero when
	// Config.RemoteStore is nil or unwrapped).
	RemoteFlushedEpochs int                      `json:"remote_flushed_epochs"`
	RemoteFlushErrors   int                      `json:"remote_flush_errors"`
	Remote              ckptstore.ResilientStats `json:"remote"`
	// Folds counts spare-exhaustion folds onto a survivor; Expands counts
	// folded nodes later re-expanded onto freed spares; DegradedNodes is
	// how many logical nodes were still folded at run end.
	Folds         int `json:"folds"`
	Expands       int `json:"expands"`
	DegradedNodes int `json:"degraded_nodes"`
	// ResumedEpoch is the durable epoch the job warm-started from via
	// Config.ResumeEpochs (0 = cold start from factory state).
	ResumedEpoch uint64 `json:"resumed_epoch"`
	// ExchangeFrames / ExchangeRetries count frames offered to the lossy
	// link (data, acks, and resends) and frame-level retransmissions;
	// Link is the link's own loss/duplication/reorder accounting. All
	// zero when Config.Exchange is nil.
	ExchangeFrames  int64            `json:"exchange_frames"`
	ExchangeRetries int64            `json:"exchange_retries"`
	Link            netsim.LinkStats `json:"link"`
}

// Controller runs an ACR job.
type Controller struct {
	cfg     Config
	machine *runtime.Machine
	coord   *consensus.Coordinator
	store   ckptstore.Store
	// pool recycles retired checkpoints from Evict back into capture; nil
	// when the store is caller-supplied or does not support recycling.
	pool *ckptstore.Pool

	// tiers are the durable rungs of the recovery ladder below buddy
	// memory, in ladder order; the commit path flushes to each and recovery
	// walks them in turn (ladder.go). flush and remote are the two New can
	// configure — control-plane operations and the stats address them by
	// name — and an unconfigured one has a nil store and is not in tiers.
	tiers         []*tier
	flush, remote tier
	// commitLog lists committed epochs in commit order (eventLoop only).
	commitLog []uint64

	// exch is the hardened exchange protocol driver; nil when
	// Config.Exchange is nil. digests holds, per dense (node, task), the
	// buddy digest the last checksum-mode exchange delivered (nil without
	// a link).
	exch    *exchanger
	digests []digestSlot

	// clocks time the current round's capture / exchange / compare stages
	// (wall span and summed per-task busy time); roundFetch totals the store
	// fetch time compareTask spends inside the compare stage. Reset as each
	// round passes its cut (resetPhases), harvested by commit.
	clocks     [3]stages.Clock
	roundFetch atomicDuration
	// outcomes and verdicts are the round body's dense per-(node, task)
	// scratch — each task's first stage failure and its compare verdict —
	// reused by every round body and stages.Run call. capErrs holds each
	// replica's capture error per task (the two replicas of a task can be
	// captured concurrently), folded into outcomes when the round finishes;
	// need counts the prerequisites of each task's compare still to land.
	outcomes []stages.Outcome
	verdicts []verdict
	capErrs  [2][]error
	need     []atomic.Int32
	// sender is the current round's sending replica: the one whose data the
	// exchange ships and whose digest the compare holds against the other's
	// checkpoint. Set as the round body starts its first replica.
	sender int

	// committedEpoch is the last verified (or trusted) checkpoint epoch in
	// the store; 0 = job start, nothing committed. epochSeq is the last
	// epoch handed out to a capture (aborted rounds burn epochs; they are
	// reclaimed by the eviction at the next commit).
	committedEpoch uint64
	epochSeq       uint64

	history  failure.History
	interval time.Duration
	start    time.Time
	stats    Stats

	// pendingWeak[rep] marks a crashed replica awaiting weak-scheme
	// recovery at the next periodic checkpoint.
	pendingWeak [2]bool
	// pendingSDC queues safe-point corruption injections: at the next
	// checkpoint round, just before packing, one random bit of the
	// task's user data is flipped (§6.1). Guarded by sdcMu: injections
	// may arrive from other goroutines while the run loop drains them.
	sdcMu      sync.Mutex
	pendingSDC []runtime.Addr
	// injectSeed drives deterministic corruption placement.
	injectSeed int64

	waitErr   chan error
	predictCh chan struct{}
	// opCh carries control-plane operations (forced flush, on-demand
	// restore) onto the controller goroutine, where they run between
	// rounds with exclusive access to the protocol state. See ops.go.
	opCh chan func()

	// prog mirrors the protocol counters into atomics so Progress() can
	// serve live snapshots to pollers (the acrd API) without touching the
	// controller goroutine's unsynchronized stats.
	prog progressCounters
}

// New builds a controller. Call Run to execute the job.
func New(cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	coord := consensus.New(cfg.NodesPerReplica, cfg.TasksPerNode)
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica:   cfg.NodesPerReplica,
		TasksPerNode:      cfg.TasksPerNode,
		Spares:            cfg.Spares,
		Factory:           cfg.Factory,
		Gate:              coord,
		HeartbeatInterval: cfg.HeartbeatInterval,
		HeartbeatTimeout:  cfg.HeartbeatTimeout,
		Chaos:             cfg.Chaos,
	})
	if err != nil {
		return nil, err
	}
	st := cfg.Store
	var pool *ckptstore.Pool
	if st == nil {
		st = ckptstore.NewMem()
		// The controller owns this store exclusively, so recycling evicted
		// checkpoints back into capture is safe: nothing outside the commit
		// path can hold Bytes() of an evictable epoch. A caller-supplied
		// store is left unpooled — the caller may retain checkpoint views —
		// but can opt in through ckptstore.Recycler before passing it.
		if rec, ok := st.(ckptstore.Recycler); ok {
			pool = ckptstore.NewPool(0)
			rec.SetPool(pool)
		}
	}
	// Interpose the injection hook on the store's read/write paths so
	// at-rest corruption campaigns see every checkpoint that lands.
	st = ckptstore.WithHook(st, cfg.Chaos)
	ctrl := &Controller{
		pool:       pool,
		cfg:        cfg,
		machine:    m,
		coord:      coord,
		store:      st,
		interval:   cfg.CheckpointInterval,
		injectSeed: 1,
		waitErr:    make(chan error, 1),
		predictCh:  make(chan struct{}, 8),
		opCh:       make(chan func()),
		outcomes:   make([]stages.Outcome, cfg.NodesPerReplica*cfg.TasksPerNode),
		verdicts:   make([]verdict, cfg.NodesPerReplica*cfg.TasksPerNode),
		need:       make([]atomic.Int32, cfg.NodesPerReplica*cfg.TasksPerNode),
	}
	for rep := range ctrl.capErrs {
		ctrl.capErrs[rep] = make([]error, len(ctrl.outcomes))
	}
	// The two rungs differ only in the data set here: which TierRecoveries
	// slots a restore books (at the committed epoch / older), the trace
	// wording, and the injection points. Only the flush tier is wrapped with
	// the store-level corruption hook and fires core.flush once an epoch has
	// landed; the remote tier is used as configured — it fires its own
	// remote.put / remote.get points (ckptstore.Remote), and interposing
	// StoreWrite on it would shift the occurrence counts existing at-rest
	// corruption scenarios trigger on.
	if cfg.FlushEvery > 0 {
		ctrl.flush = tier{store: cfg.FlushStore, every: cfg.FlushEvery, retain: cfg.FlushRetain,
			rungs: [2]int{1, 2}, kind: trace.Store, name: "durable", verb: "flush", landed: point.CoreFlush}
		if cfg.FlushStore == nil {
			d, err := ckptstore.NewDisk("", nil)
			if err != nil {
				return nil, fmt.Errorf("core: create durable flush tier: %w", err)
			}
			ctrl.flush.store, ctrl.flush.owned = d, d
		}
		ctrl.flush.store = ckptstore.WithHook(ctrl.flush.store, cfg.Chaos)
		ctrl.tiers = append(ctrl.tiers, &ctrl.flush)
	}
	if cfg.RemoteStore != nil {
		ctrl.remote = tier{store: cfg.RemoteStore, every: cfg.RemoteFlushEvery, retain: cfg.RemoteRetain,
			rungs: [2]int{3, 3}, kind: trace.Remote, name: "remote", verb: "remote flush"}
		ctrl.tiers = append(ctrl.tiers, &ctrl.remote)
	}
	if cfg.Exchange != nil {
		ctrl.exch = newExchanger(ctrl, *cfg.Exchange)
		ctrl.digests = make([]digestSlot, len(ctrl.outcomes))
	}
	return ctrl, nil
}

// PredictFailure notifies ACR of an anticipated hard error (an online
// failure predictor's output, §2.2): the controller schedules an immediate
// dynamic checkpoint, so that if the predicted failure materializes the
// rework window is nearly empty. Safe to call from any goroutine.
func (c *Controller) PredictFailure() {
	select {
	case c.predictCh <- struct{}{}:
	default: // a prediction is already queued; one checkpoint suffices
	}
}

// Machine exposes the underlying runtime machine (for tests and demos).
func (c *Controller) Machine() *runtime.Machine { return c.machine }

// Store exposes the checkpoint store the controller commits through (for
// tests and demos).
func (c *Controller) Store() ckptstore.Store { return c.store }

// InjectSDCAtNextCheckpoint schedules a single-bit corruption of the given
// task's user data at the next compared checkpoint round (applied at the
// quiescent point just before packing, which makes the injection race-free
// while preserving the paper's semantics: corrupted state enters the local
// checkpoint and is caught — or missed — by the comparison). A medium/weak
// recovery checkpoint in between does not consume the injection: that round
// is trusted without comparison, so firing there would be the §2.3 escape
// by construction rather than a test of detection. The address stays queued
// until a round that compares buddies, and is applied when that round is
// handed the address's replica — so an address scheduled after its replica
// was captured waits for the next compared round. An injection applied in a
// round that then does not complete is flipped back and queued again, so it
// lands in exactly one compared round's capture.
func (c *Controller) InjectSDCAtNextCheckpoint(addr runtime.Addr) {
	c.sdcMu.Lock()
	c.pendingSDC = append(c.pendingSDC, addr)
	c.sdcMu.Unlock()
}

// KillNode injects a fail-stop error (for tests/demos without an external
// failure plan).
func (c *Controller) KillNode(rep, node int) { c.machine.Kill(rep, node) }

func (c *Controller) now() float64 { return time.Since(c.start).Seconds() }

func (c *Controller) mark(k trace.Kind, detail string) {
	if c.cfg.Timeline != nil {
		c.cfg.Timeline.Add(c.now(), k, detail)
	}
}

// fire notifies the chaos hook of a protocol-phase injection point and
// returns the info as the hook left it (hooks answer through it, e.g. Drop).
func (c *Controller) fire(id point.ID, info point.Info) point.Info {
	if c.cfg.Chaos != nil {
		c.cfg.Chaos.Fire(id, &info)
	}
	return info
}

// Run executes the job to completion, handling failures per the configured
// scheme. It returns the run statistics and the first unrecoverable error,
// if any.
func (c *Controller) Run() (Stats, error) {
	c.start = time.Now()
	c.machine.Start()
	err := c.resume()
	go func() { c.waitErr <- c.machine.Wait() }()

	if err == nil {
		err = c.eventLoop()
	}
	c.machine.Stop()
	for _, t := range c.tiers {
		t.wg.Wait()
		if t.owned != nil {
			if cerr := t.owned.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("core: close %s tier: %w", t.name, cerr)
			}
		}
	}
	c.stats.FinalInterval = c.interval
	c.stats.Elapsed = time.Since(c.start)
	c.stats.StoreName = c.store.Name()
	c.stats.Store = c.store.Counters()
	c.stats.PackFastPath, c.stats.PackSlowPath = c.machine.PackCounters()
	c.stats.CaptureChunksPacked, c.stats.CaptureChunksReused, c.stats.CaptureBytesReused = c.machine.DirtyCounters()
	c.stats.DirtyRatio = 1
	if total := c.stats.CaptureChunksPacked + c.stats.CaptureChunksReused; total > 0 {
		c.stats.DirtyRatio = float64(c.stats.CaptureChunksPacked) / float64(total)
	}
	if c.pool != nil {
		c.stats.Pool = c.pool.Counters()
	}
	c.stats.FlushedEpochs = int(c.flush.flushed.Load())
	c.stats.FlushErrors = int(c.flush.errs.Load())
	c.stats.RemoteFlushedEpochs = int(c.remote.flushed.Load())
	c.stats.RemoteFlushErrors = int(c.remote.errs.Load())
	c.stats.Remote, _ = ckptstore.ResilientStatsOf(c.remote.store)
	c.stats.DegradedNodes = c.machine.FoldedCount()
	c.stats.Expands = int(c.machine.ExpandCount())
	if c.exch != nil {
		// Frames still held for reordering come out the far end now, so
		// Sent + Duplicated == Delivered + Lost in the harvested counters.
		c.exch.link.Flush()
		c.stats.Link = c.exch.link.Stats()
		c.stats.ExchangeChunksShipped = c.exch.chunksShipped.Load()
		c.stats.ExchangeChunksReused = c.exch.chunksReused.Load()
		c.stats.ExchangeFrames = c.exch.frames.Load()
		c.stats.ExchangeRetries = c.exch.retries.Load()
	}
	return c.stats, err
}

// FreeSpare models a repaired node rejoining the job: a fresh spare is
// added to the pool and, if the job is running degraded, folded nodes are
// re-expanded onto it (oldest fold first). Safe to call from any
// goroutine.
func (c *Controller) FreeSpare() {
	c.machine.AddSpare()
	if n := c.machine.ExpandFolded(); n > 0 {
		c.mark(trace.Fold, fmt.Sprintf("%d folded node(s) re-expanded onto freed spare", n))
	}
}

// atomicDuration is a duration accumulated from concurrent workers.
type atomicDuration struct{ ns atomic.Int64 }

func (d *atomicDuration) Reset()              { d.ns.Store(0) }
func (d *atomicDuration) Add(x time.Duration) { d.ns.Add(int64(x)) }
func (d *atomicDuration) Load() time.Duration { return time.Duration(d.ns.Load()) }

func (c *Controller) eventLoop() error {
	var timer *time.Timer
	var timerC <-chan time.Time
	arm := func() {
		if c.cfg.CheckpointInterval <= 0 {
			return
		}
		if timer != nil {
			timer.Stop()
		}
		timer = time.NewTimer(c.interval)
		timerC = timer.C
	}
	arm()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	for {
		select {
		case err := <-c.waitErr:
			if err != nil {
				return err
			}
			if c.machine.Done() {
				return nil
			}
			// Stale completion: the job finished but was rolled back
			// since; re-arm the waiter.
			go func() { c.waitErr <- c.machine.Wait() }()
		case f := <-c.machine.Failures():
			if err := c.handleFailure(f); err != nil {
				return err
			}
			arm()
		case <-timerC:
			if err := c.checkpointRound(); err != nil {
				return err
			}
			arm()
		case <-c.predictCh:
			c.stats.Predicted++
			c.mark(trace.Progress, "failure predicted: dynamic checkpoint")
			if err := c.checkpointRound(); err != nil {
				return err
			}
			arm()
		case op := <-c.opCh:
			// Control-plane operation (forced flush, on-demand restore):
			// runs with the protocol quiescent between rounds.
			op()
			arm()
		}
	}
}

// adaptInterval re-derives the checkpoint period from the failure history
// using the Young/Daly first-order optimum with the *current* fitted MTBF.
func (c *Controller) adaptInterval() {
	if !c.cfg.Adaptive {
		return
	}
	var mtbf float64
	var ok bool
	switch c.cfg.Estimator {
	case MeanEstimator:
		mtbf, ok = c.history.MeanMTBF()
	case WeibullEstimator:
		mtbf, ok = c.history.WeibullMTBF(c.now())
	default:
		mtbf, ok = c.history.CurrentMTBF(c.now())
	}
	if !ok {
		return
	}
	lo, hi := c.cfg.intervalBounds()
	delta, measured := c.avgCheckpointSeconds()
	if !measured {
		// No committed round yet, so no delta to plug into Young/Daly.
		// Fall back to the most protective legal interval — checkpoint at
		// the lower bound until a real measurement exists — instead of
		// guessing the cost from the configured interval.
		c.interval = lo
		return
	}
	tau := math.Sqrt(2 * delta * mtbf)
	c.interval = min(max(time.Duration(tau*float64(time.Second)), lo), hi)
}

// avgCheckpointSeconds returns the mean wall duration of the committed
// checkpoint rounds; measured is false while no round has committed.
func (c *Controller) avgCheckpointSeconds() (delta float64, measured bool) {
	if len(c.stats.CheckpointTimes) == 0 {
		return 0, false
	}
	var sum time.Duration
	for _, d := range c.stats.CheckpointTimes {
		sum += d
	}
	return (sum / time.Duration(len(c.stats.CheckpointTimes))).Seconds(), true
}
