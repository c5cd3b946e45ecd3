package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/checksum"
	"acr/internal/ckptstore"
	"acr/internal/netsim"
	"acr/internal/trace"
)

// This file hardens the buddy checkpoint exchange against a lossy
// interconnect. The direct path (Config.Exchange == nil) mirrors recovery
// checkpoints and learns compare outcomes through in-process store calls —
// implicitly a perfectly reliable network. With an ExchangeConfig, the
// recovery-checkpoint mirror and the per-round compare-result message
// instead travel as frames through a netsim.Link that loses, duplicates,
// and reorders them, and a small ack/retry protocol makes the exchange
// reliable again:
//
//   - a checkpoint is one frame per chunk, identified by (epoch, node,
//     task, chunk) and acknowledged per chunk, the acks crossing the same
//     lossy link; a checksum digest (chunk size, length, root and chunk
//     sums — all checksum comparison needs of the buddy) is one frame;
//     either transfer is one selective-repeat window: every
//     unacknowledged frame goes out back to back, then one round trip is
//     waited for all of them (sendWindow);
//   - only the frames still unacknowledged after a pass are resent, after
//     a capped exponential backoff plus deterministic jitter, bounded by
//     an attempt count per frame and a per-transfer deadline (retryPolicy);
//   - the receive side is idempotent: duplicate or late deliveries are
//     deduplicated by frame id, and payload bytes are copied into the
//     frame at send time, so a straggler delivered after its transfer
//     completed can never scribble on recycled checkpoint-pool buffers.
//
// A failed exchange (attempts or deadline exhausted) aborts the recovery
// round with an error instead of hanging — the watchdog never has to fire.

// ErrExchange reports a hardened-exchange transfer that exhausted its
// retry budget or round deadline.
var ErrExchange = errors.New("core: checkpoint exchange failed")

// ExchangeConfig parameterizes the hardened exchange.
type ExchangeConfig struct {
	// Loss / Dup / Reorder are the link fault probabilities (see
	// netsim.LinkParams).
	Loss    float64
	Dup     float64
	Reorder float64
	// Seed drives the link's fault draws and the backoff jitter; the
	// whole exchange schedule is a pure function of it.
	Seed int64
	// Latency is the modeled one-way frame propagation delay: a transfer
	// costs one full round trip (data frames out, acks back) per pass over
	// its unacknowledged frames — one, on a clean link. Zero keeps the link
	// instantaneous — what every chaos campaign runs with. A positive
	// latency is what the exchange stage's width overlaps across tasks; at
	// width 1 it is dead time for every task behind the one in flight.
	Latency time.Duration
	// ShipCheckpoints routes every live round's buddy data through the
	// link as well, per task, instead of only recovery mirrors and
	// compare-result messages; the link cost (and its overlap across the
	// exchange stage's workers) becomes part of every round. What crosses
	// is what the comparison needs: under ChecksumCompare one digest frame
	// per task, on which the compare stage then decides; under FullCompare
	// the checkpoint bytes, delta-aware against the last committed epoch
	// and root-verified against the source, while the byte comparison reads
	// the store's copy.
	ShipCheckpoints bool
}

func (e *ExchangeConfig) validate() error {
	if e.Loss < 0 || e.Dup < 0 || e.Reorder < 0 || e.Loss+e.Dup+e.Reorder >= 1 {
		return fmt.Errorf("core: exchange fault probabilities must be non-negative and sum below 1 (loss=%v dup=%v reorder=%v)",
			e.Loss, e.Dup, e.Reorder)
	}
	if e.Latency < 0 {
		return fmt.Errorf("core: negative exchange latency %v", e.Latency)
	}
	return nil
}

// The exchange's retry bounds. roundDeadline bounds one transfer's total
// wall time, so a pathological link fails the round visibly rather than
// tripping the campaign watchdog.
const (
	maxAttempts   = 16                    // transmissions per frame
	baseBackoff   = 50 * time.Microsecond // first resend's backoff, doubling per pass
	maxBackoff    = time.Millisecond      // the backoff's cap
	roundDeadline = 5 * time.Second
)

// retryPolicy is an exchanger's copy of the retry bounds; tests shrink it.
type retryPolicy struct {
	attempts  int
	base, max time.Duration
	deadline  time.Duration
}

// frameID identifies one exchange frame. Data frames carry one checkpoint
// chunk (chunk >= 0); a negative chunk marks the frame kinds below.
type frameID struct {
	epoch uint64
	node  int
	task  int
	chunk int
}

// The frame kinds a negative frameID.chunk marks.
const (
	resultFrame = -1 // the round's compare-result message (node and task -1)
	digestFrame = -2 // one task's checksum digest
)

func (id frameID) String() string {
	if id.chunk == digestFrame {
		return fmt.Sprintf("n%d/t%d@e%d digest", id.node, id.task, id.epoch)
	}
	return fmt.Sprintf("n%d/t%d@e%d chunk %d", id.node, id.task, id.epoch, id.chunk)
}

// frame is what crosses the link: a chunk or digest payload (copied at
// send time) or an acknowledgement for one.
type frame struct {
	id      frameID
	ack     bool
	payload []byte
	off     int // payload offset in the assembled buffer
}

// assemblyKey addresses one in-flight reassembly: a checkpoint or a
// digest (a round ships one or the other for a task, never both).
type assemblyKey struct {
	epoch uint64
	node  int
	task  int
}

// exchanger drives the ack/retry protocol over one lossy link. At exchange
// stage width 1 one transfer is in flight at a time; wider, several are, so
// the protocol state is mutex-guarded: map mutations and frame arbitration
// serialize on mu (the wire is serial), while propagation delay and backoff
// sleeps happen outside it (flight time is concurrent).
type exchanger struct {
	c     *Controller
	cfg   ExchangeConfig
	retry retryPolicy
	link  *netsim.Link
	// mu guards seen/acked/assembling, the rng, and transmit's worklist
	// loop. Acquiring it on the final ack check also publishes every
	// assembly-buffer write (they happen under the same mutex) to the
	// transfer's goroutine.
	mu  sync.Mutex
	rng *rand.Rand // backoff jitter
	// seen deduplicates delivered data frames; acked records received
	// acks. Both outlive their transfer so late duplicates of a finished
	// one stay inert, and are pruned below floor — the committed epoch —
	// where transmit drops a straggler before it could touch either map
	// (it could never find an assembly buffer: epochs are not reused).
	seen  map[frameID]bool
	acked map[frameID]bool
	floor uint64
	// assembling maps in-flight reassemblies to their destination
	// buffers; a data frame whose transfer already finalized finds no
	// buffer and is dropped (counted, never written). Distinct transfers
	// own distinct buffers keyed by (epoch, node, task), so concurrent
	// in-flight transfers can never cross-contaminate.
	assembling map[assemblyKey][]byte
	// chunksShipped / chunksReused split transferred checkpoints into
	// chunks that crossed the link versus chunks reconstructed from the
	// receiver's retained base (matching per-chunk sums). frames / retries
	// mirror Stats.ExchangeFrames / ExchangeRetries; all four are atomics
	// because concurrent transfers update them, and are
	// harvested into Stats at Run end.
	chunksShipped atomic.Int64
	chunksReused  atomic.Int64
	frames        atomic.Int64
	retries       atomic.Int64
	passes        atomic.Int64 // sendWindow passes; read by tests only
}

func newExchanger(c *Controller, cfg ExchangeConfig) *exchanger {
	return &exchanger{
		c:          c,
		cfg:        cfg,
		retry:      retryPolicy{maxAttempts, baseBackoff, maxBackoff, roundDeadline},
		link:       netsim.NewLink(netsim.LinkParams{Loss: cfg.Loss, Dup: cfg.Dup, Reorder: cfg.Reorder, Seed: cfg.Seed}),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ 0x657863)),
		seen:       make(map[frameID]bool),
		acked:      make(map[frameID]bool),
		assembling: make(map[assemblyKey][]byte),
	}
}

// shipCheckpoint transfers one task checkpoint through the link and
// returns the reassembled (freshly captured) checkpoint. When the
// receiver retains a compatible base checkpoint (same chunk geometry and
// length — normally the last committed epoch), only the chunks whose
// per-chunk sums differ from the base cross the link; the rest are
// reconstructed from the base's bytes. A nil or incompatible base ships
// everything. The returned checkpoint owns its buffer — it never aliases
// src or base, so the receiver's copy is safe against later recycling.
func (x *exchanger) shipCheckpoint(epoch uint64, node, task int, src, base *ckptstore.Checkpoint) (*ckptstore.Checkpoint, error) {
	deadline := time.Now().Add(x.retry.deadline)
	key := assemblyKey{epoch: epoch, node: node, task: task}
	buf := make([]byte, src.Len())
	baseOK := base != nil && base.ChunkSize == src.ChunkSize &&
		base.Len() == src.Len() && len(base.Sums) == len(src.Sums)
	// Reused chunks are filled from the base and never cross the link;
	// every other slot is written by its frame.
	var ship []int
	for i := 0; i < src.NumChunks(); i++ {
		if baseOK && src.Sums[i] == base.Sums[i] {
			copy(buf[i*src.ChunkSize:], base.Chunk(i))
		} else {
			ship = append(ship, i)
		}
	}
	// Copy the payloads out of the store-owned buffer, into one allocation
	// per transfer: a duplicate of a frame may be delivered after the
	// transfer (and the source epoch) is long gone.
	wire := make([]byte, 0, len(ship)*src.ChunkSize)
	frames := make([]frame, len(ship))
	for j, i := range ship {
		start := len(wire)
		wire = append(wire, src.Chunk(i)...)
		frames[j] = frame{
			id:      frameID{epoch: epoch, node: node, task: task, chunk: i},
			payload: wire[start:],
			off:     i * src.ChunkSize,
		}
	}
	shipped, reused := len(ship), src.NumChunks()-len(ship)
	x.mu.Lock()
	x.assembling[key] = buf
	x.mu.Unlock()
	defer func() {
		x.mu.Lock()
		delete(x.assembling, key)
		x.mu.Unlock()
	}()
	resent, err := x.sendWindow(frames, deadline)
	if err != nil {
		return nil, fmt.Errorf("transfer of %d/%d chunks: %w", shipped, src.NumChunks(), err)
	}
	x.chunksShipped.Add(int64(shipped))
	x.chunksReused.Add(int64(reused))
	ck := ckptstore.Capture(buf, src.ChunkSize, 1)
	if ck.Root != src.Root {
		// Load-bearing with base reuse: a base whose stored bytes diverged
		// from its recorded sums (e.g. in-place corruption) would prefill
		// wrong bytes under a matching sum, and only this full-buffer root
		// check catches it — loud error, not silent SDC.
		return nil, fmt.Errorf("%w: reassembled checkpoint n%d/t%d@e%d root mismatch", ErrExchange, node, task, epoch)
	}
	if resent > 0 {
		x.c.mark(trace.Net, fmt.Sprintf("exchange n%d/t%d@e%d: %d chunks shipped, %d reused, %d retransmissions", node, task, epoch, shipped, reused, resent))
	}
	return ck, nil
}

// digestSlot is one task's buddy digest as it arrived over the link,
// stamped with the epoch of the transfer that delivered it: the compare
// stage reads it for that epoch only, so a digest left behind by an aborted
// round is never used. digest.Sums is reused round to round.
type digestSlot struct {
	epoch  uint64 // 0 until a transfer has landed and verified
	digest ckptstore.Digest
}

// digestHeader is the encoded digest's fixed part: chunk size, length and
// root, one little-endian uint64 each; the chunk sums follow.
const digestHeader = 24

// shipDigest sends one task's checksum digest through the link as a single
// frame and decodes what arrived into dst. The receiver refolds the root
// from the received sums, so a digest damaged on its way to the compare
// fails the round loudly with ErrExchange instead of deciding its verdict.
func (x *exchanger) shipDigest(epoch uint64, node, task int, d ckptstore.Digest, dst *digestSlot) error {
	deadline := time.Now().Add(x.retry.deadline)
	// Encoded into a buffer of its own: a duplicate of the frame may be
	// delivered after the transfer is long gone.
	payload := make([]byte, 0, digestHeader+8*len(d.Sums))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(d.ChunkSize))
	payload = binary.LittleEndian.AppendUint64(payload, uint64(d.Len))
	payload = binary.LittleEndian.AppendUint64(payload, d.Root)
	for _, s := range d.Sums {
		payload = binary.LittleEndian.AppendUint64(payload, s)
	}
	f := frame{id: frameID{epoch: epoch, node: node, task: task, chunk: digestFrame}, payload: payload}
	key := assemblyKey{epoch: epoch, node: node, task: task}
	w := make([]byte, len(payload))
	dst.epoch = 0
	x.mu.Lock()
	x.assembling[key] = w
	x.mu.Unlock()
	resent, err := x.sendWindow([]frame{f}, deadline)
	x.mu.Lock()
	delete(x.assembling, key)
	x.mu.Unlock()
	if err != nil {
		return fmt.Errorf("digest transfer: %w", err)
	}
	got := &dst.digest
	got.ChunkSize = int(binary.LittleEndian.Uint64(w))
	got.Len = int(binary.LittleEndian.Uint64(w[8:]))
	got.Root = binary.LittleEndian.Uint64(w[16:])
	n := (len(w) - digestHeader) / 8
	got.Sums = slices.Grow(got.Sums[:0], n)[:n]
	for i := range got.Sums {
		got.Sums[i] = binary.LittleEndian.Uint64(w[digestHeader+8*i:])
	}
	if checksum.ChunkRoot(got.Sums) != got.Root {
		return fmt.Errorf("%w: digest n%d/t%d@e%d: root does not fold from its %d chunk sums", ErrExchange, node, task, epoch, n)
	}
	if resent > 0 {
		x.c.mark(trace.Net, fmt.Sprintf("exchange n%d/t%d@e%d: digest, %d retransmissions", node, task, epoch, resent))
	}
	dst.epoch = epoch
	return nil
}

// shipResult sends the round's compare-result message reliably through
// the link. The frame carries agreement, not the verdict: the verdict rides
// in the controller, and both sides act on it only after this returns, so
// a lossy link can delay a commit or rollback but never desynchronize the
// replicas' view of it.
func (x *exchanger) shipResult(epoch uint64) error {
	f := frame{id: frameID{epoch: epoch, node: -1, task: -1, chunk: resultFrame}}
	if _, err := x.sendWindow([]frame{f}, time.Now().Add(x.retry.deadline)); err != nil {
		return fmt.Errorf("compare-result message e%d: %w", epoch, err)
	}
	return nil
}

// sendWindow delivers one transfer's frames (in chunk order) reliably: a
// selective-repeat window as wide as the transfer — the receiver has
// preallocated the whole assembly buffer, so nothing bounds it. Each pass
// transmits every still-unacknowledged frame back to back, waits one round
// trip for all of them, and keeps only the unacknowledged for the next
// pass, which follows after a capped exponential backoff plus jitter. A
// frame is transmitted in every pass until it is acknowledged, so the pass
// number is its attempt count. resent counts retransmitted frames (for the
// caller's trace mark); the exchanger-wide total lands in x.retries.
func (x *exchanger) sendWindow(pending []frame, deadline time.Time) (resent int64, err error) {
	backoff := x.retry.base
	for pass := 0; len(pending) > 0; pass++ {
		if pass >= x.retry.attempts {
			return resent, fmt.Errorf("%w: frame %v unacknowledged after %d attempts", ErrExchange, pending[0].id, pass)
		}
		if !time.Now().Before(deadline) {
			return resent, fmt.Errorf("%w: frame %v missed the round deadline", ErrExchange, pending[0].id)
		}
		if pass > 0 {
			x.retries.Add(int64(len(pending)))
			resent += int64(len(pending))
			// Full jitter on the capped exponential: sleep in
			// [backoff/2, backoff), deterministically from the seed.
			x.mu.Lock()
			jitter := time.Duration(x.rng.Int63n(int64(backoff/2) + 1))
			x.mu.Unlock()
			time.Sleep(backoff/2 + jitter)
			backoff = min(2*backoff, x.retry.max)
		}
		x.passes.Add(1)
		for _, f := range pending {
			x.transmit(f)
		}
		if x.cfg.Latency > 0 {
			// One round trip per pass: the data frames propagate out, the
			// acks propagate back. This flight time is what the exchange
			// stage overlaps across concurrent transfers — the sleep
			// deliberately happens outside mu.
			time.Sleep(2 * x.cfg.Latency)
		}
		x.mu.Lock()
		unacked := pending[:0]
		for _, f := range pending {
			if !x.acked[f.id] {
				unacked = append(unacked, f)
			}
		}
		x.mu.Unlock()
		pending = unacked
	}
	return resent, nil
}

// prune forgets every frame below the newly committed epoch and raises the
// floor below which transmit drops stragglers, so the dedupe maps hold one
// round's frames however long the job runs.
func (x *exchanger) prune(committed uint64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.floor = committed
	for _, m := range []map[frameID]bool{x.seen, x.acked} {
		for id := range m {
			if id.epoch < committed {
				delete(m, id)
			}
		}
	}
}

// transmit pushes one frame (and any protocol frames it provokes) through
// the link. Delivered data frames are written into their transfer's
// assembly buffer exactly once and acknowledged; the acks cross the same
// lossy link. The worklist bounds: every delivery of a data frame enqueues
// at most one ack, ack deliveries enqueue nothing, and the link's held
// queue only drains, so the loop terminates. The whole exchange runs
// under mu — the wire is serial even when many transfers are in flight —
// and that same mutex is what publishes assembly-buffer writes to the
// owning transfer's ack check at the end of its pass.
func (x *exchanger) transmit(f frame) {
	x.mu.Lock()
	defer x.mu.Unlock()
	queue := []frame{f}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Fired under mu: the wire is serial, so frame firings are totally
		// ordered even when several transfers are in flight.
		info := x.c.fire(point.NetFrame, point.Info{Replica: -1, Node: cur.id.node, Task: cur.id.task, Epoch: cur.id.epoch, Iter: cur.id.chunk})
		x.frames.Add(1)
		if info.Drop {
			// An injected drop: the frame dies before the link sees it.
			continue
		}
		for _, o := range x.link.Send(cur) {
			g := o.(frame)
			if g.id.epoch < x.floor {
				continue // a straggler of a pruned epoch: inert
			}
			if g.ack {
				x.acked[g.id] = true
				continue
			}
			if !x.seen[g.id] {
				x.seen[g.id] = true
				if buf, ok := x.assembling[assemblyKey{epoch: g.id.epoch, node: g.id.node, task: g.id.task}]; ok && g.payload != nil {
					copy(buf[g.off:], g.payload)
				}
			}
			// Ack every delivery, duplicate or not: the sender may have
			// missed the previous ack.
			queue = append(queue, frame{id: g.id, ack: true})
		}
	}
}
