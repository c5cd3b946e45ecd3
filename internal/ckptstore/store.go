// Package ckptstore is ACR's tiered checkpoint storage subsystem.
//
// The paper's protection scheme (§2.1, §4.2) lives or dies by how fast
// buddy checkpoints can be produced, shipped, and compared. The original
// core treated a checkpoint as one opaque byte blob: serial Fletcher-64
// over the whole buffer, whole-blob byte comparison, one in-memory copy.
// This package replaces that with a storage abstraction in the spirit of
// multilevel checkpointing systems (CRAFT, FTI, SCR):
//
//   - Checkpoints are chunked: capture splits the pup buffer into
//     fixed-size chunks and computes per-chunk Fletcher-64 sums with a
//     worker pool (checksum.Fletcher64Chunks), folded into a
//     position-dependent root.
//   - Comparison is a Merkle-style two-phase check: roots first (the
//     32-byte exchange of §4.2), then — only on mismatch — per-chunk sums
//     to localize the corrupted chunk. SDC diagnostics name the chunk,
//     not just the task.
//   - Storage is pluggable behind the Store interface, keyed by
//     {replica, node, task, epoch}: an in-memory buddy tier (Mem), a
//     disk tier wired to the parallel-file-system cost model of
//     internal/model (Disk), and a simulated remote object store (Remote).
//     Wrappers that change one or two methods embed Layer; As looks
//     through a wrapper stack for a backend or a capability.
//   - Only the hot tier holds both replicas. A durable tier receives
//     committed epochs, whose buddies the compare has shown identical, so
//     it keeps one copy per compared pair — replica 0's checkpoint, under
//     replica 0's key — and both replicas restore from it. An epoch there
//     is complete at nodes × tasks checkpoints (CompleteEpochs).
//
// Every backend maintains Counters (bytes written/read, chunks stored,
// compare time, last localized chunk) that internal/core surfaces through
// core.Stats and trace events.
package ckptstore

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"acr/internal/checksum"
)

// Key identifies one task's checkpoint at one epoch. Epochs are assigned
// by the controller and increase monotonically; epoch 0 is reserved for
// "no checkpoint".
type Key struct {
	Replica int
	Node    int
	Task    int
	Epoch   uint64
}

func (k Key) String() string {
	return fmt.Sprintf("r%d/n%d/t%d@e%d", k.Replica, k.Node, k.Task, k.Epoch)
}

// ErrNotFound reports a Get/Compare against a key the store does not hold.
var ErrNotFound = errors.New("ckptstore: checkpoint not found")

// ErrCorrupt reports a stored checkpoint whose payload no longer matches
// its resident metadata — corruption at rest, caught by a tier's read-path
// re-verification. Callers distinguish it with errors.Is: a corrupt
// checkpoint is *detected* damage (restore from an older epoch, count an
// SDC), where ErrNotFound is merely absence.
var ErrCorrupt = errors.New("ckptstore: checkpoint corrupted at rest")

// Checkpoint is one chunked, checksummed task checkpoint. The zero value
// is not useful; build one with Capture.
type Checkpoint struct {
	// ChunkSize is the chunk granularity the sums were computed at.
	ChunkSize int
	// Root is the position-dependent fold of Sums (checksum.ChunkRoot).
	Root uint64
	// Sums holds the per-chunk Fletcher-64 sums.
	Sums []uint64
	// data is the full packed task state. Backends may share it; callers
	// must treat Bytes() as read-only.
	data []byte
	// retained marks a checkpoint a capture path still holds a reference to
	// beyond its store residency (the patch-in-place splice base). Pool.Put
	// drops retained checkpoints instead of recycling them: handing the
	// buffer to another capture while its owner plans to patch it would
	// corrupt both. Every Capture*Into resets the flag; the owner re-arms it
	// each epoch.
	retained bool
	// borrows counts the readers outside the store that still read the
	// payload: the durable tiers' background writers, which flush the
	// committed hot-store checkpoints without copying them. While it is
	// positive the buffer must not change: Pool.Put drops the checkpoint,
	// a capture path never patches it in place, and a store that keeps a
	// Put checkpoint past return keeps a copy instead (see Store).
	borrows atomic.Int32
}

// SetRetained marks (or clears) the checkpoint as privately retained by a
// capture path, excluding it from pool recycling. See the field doc.
func (c *Checkpoint) SetRetained(v bool) { c.retained = v }

// Borrow registers a reader of the payload outside the store; each Borrow
// is paired with one Release once the reader is done with the bytes.
func (c *Checkpoint) Borrow() { c.borrows.Add(1) }

// Release ends one Borrow.
func (c *Checkpoint) Release() { c.borrows.Add(-1) }

// Borrowed reports whether a reader still holds a Borrow of the payload.
func (c *Checkpoint) Borrowed() bool { return c.borrows.Load() > 0 }

// Capture chunks data and computes its checksums on up to workers
// goroutines. The data slice is retained (not copied); the caller must not
// mutate it afterwards — checkpoint capture hands ownership to the store,
// mirroring how a real runtime would hand the buffer to the checkpoint
// transport.
func Capture(data []byte, chunkSize, workers int) *Checkpoint {
	if chunkSize <= 0 {
		chunkSize = checksum.DefaultChunkSize
	}
	root, sums := checksum.Fletcher64Chunks(data, chunkSize, workers)
	return &Checkpoint{ChunkSize: chunkSize, Root: root, Sums: sums, data: data}
}

// CaptureInto is Capture reusing a retired checkpoint's Sums slice and
// struct (typically obtained from a Pool). ck == nil behaves exactly like
// Capture. The previous contents of ck are overwritten; its payload is NOT
// reused here — pack into ck.Scratch() first and pass the result as data.
func CaptureInto(ck *Checkpoint, data []byte, chunkSize, workers int) *Checkpoint {
	if ck == nil {
		return Capture(data, chunkSize, workers)
	}
	if chunkSize <= 0 {
		chunkSize = checksum.DefaultChunkSize
	}
	root, sums := checksum.Fletcher64ChunksInto(ck.Sums, data, chunkSize, workers)
	*ck = Checkpoint{ChunkSize: chunkSize, Root: root, Sums: sums, data: data}
	return ck
}

// Bytes returns the full packed state. Read-only.
func (c *Checkpoint) Bytes() []byte { return c.data }

// Clone returns a deep copy of the checkpoint: payload and sums live in
// fresh buffers, so the clone stays valid after the original is evicted
// and recycled by a pool. The clone is neither retained nor borrowed. The
// durable flush borrows instead of cloning; a store that keeps a borrowed
// checkpoint past Put clones it there, and adopt clones what a durable
// tier's Get hands out before mirroring it into the hot store.
func (c *Checkpoint) Clone() *Checkpoint {
	data := make([]byte, len(c.data))
	copy(data, c.data)
	sums := make([]uint64, len(c.Sums))
	copy(sums, c.Sums)
	return &Checkpoint{ChunkSize: c.ChunkSize, Root: c.Root, Sums: sums, data: data}
}

// Scratch returns the checkpoint's payload buffer truncated to zero
// length, for reuse as a pack destination. Only call it on a retired
// checkpoint obtained from a Pool — on a live stored checkpoint the
// returned window aliases data other readers still trust.
func (c *Checkpoint) Scratch() []byte { return c.data[:0] }

// Len returns the packed state size in bytes.
func (c *Checkpoint) Len() int { return len(c.data) }

// NumChunks returns the chunk count.
func (c *Checkpoint) NumChunks() int { return len(c.Sums) }

// Chunk returns the i-th chunk window (shorter at the tail).
func (c *Checkpoint) Chunk(i int) []byte {
	lo := i * c.ChunkSize
	if lo >= len(c.data) {
		return nil
	}
	hi := lo + c.ChunkSize
	if hi > len(c.data) {
		hi = len(c.data)
	}
	return c.data[lo:hi]
}

// CompareResult is the outcome of a two-phase buddy comparison.
type CompareResult struct {
	// Match is true when the roots agree.
	Match bool
	// Chunk is the first mismatching chunk index when Match is false and
	// the chunk structure agrees; -1 otherwise. This is the localization
	// the Merkle-style compare buys: rollback diagnostics can attribute
	// the SDC to a byte range instead of a whole task.
	Chunk int
	// Structural is true when the two checkpoints cannot be aligned
	// (different lengths, chunk sizes, or chunk counts) — divergence, not
	// a bit flip.
	Structural bool
}

func (r CompareResult) String() string {
	switch {
	case r.Match:
		return "match"
	case r.Structural:
		return "structural divergence"
	case r.Chunk >= 0:
		return fmt.Sprintf("mismatch at chunk %d", r.Chunk)
	}
	return "mismatch"
}

// Digest is everything the two-phase comparison reads of a checkpoint — its
// chunk geometry, length, root and per-chunk sums — without the bytes. It is
// what checksum mode sends a buddy instead of the checkpoint itself. Sums
// aliases the checkpoint's slice: read-only.
type Digest struct {
	ChunkSize int
	Len       int
	Root      uint64
	Sums      []uint64
}

// Digest returns the checkpoint's digest.
func (c *Checkpoint) Digest() Digest {
	return Digest{ChunkSize: c.ChunkSize, Len: c.Len(), Root: c.Root, Sums: c.Sums}
}

// CompareCheckpoints runs the two-phase comparison on two captured
// checkpoints: roots first (cheap, what the buddies actually exchange),
// then per-chunk sums to localize the first corrupted chunk.
func CompareCheckpoints(a, b *Checkpoint) CompareResult {
	return CompareDigests(a.Digest(), b.Digest())
}

// CompareDigests is CompareCheckpoints on digests: the structural check,
// then the roots, then the first differing chunk sum.
func CompareDigests(a, b Digest) CompareResult {
	if a.ChunkSize != b.ChunkSize || len(a.Sums) != len(b.Sums) || a.Len != b.Len {
		return CompareResult{Chunk: -1, Structural: true}
	}
	if a.Root == b.Root {
		return CompareResult{Match: true, Chunk: -1}
	}
	for i := range a.Sums {
		if a.Sums[i] != b.Sums[i] {
			return CompareResult{Chunk: i}
		}
	}
	// Roots differ but every chunk sum agrees: impossible unless the root
	// fold itself was corrupted in flight; report without localization.
	return CompareResult{Chunk: -1}
}

// Store is the pluggable checkpoint tier. Implementations must be safe
// for concurrent use: capture Puts per-task checkpoints from a worker
// pool. A store does not interpret keys: the controller's hot store holds
// every replica's checkpoint of an epoch, and a durable tier is handed one
// copy per compared pair, under replica 0's key.
type Store interface {
	// Put stores a checkpoint under the key, overwriting any previous
	// value at the same key. A borrowed checkpoint (Borrowed) is only lent
	// for the call: its payload belongs to another store and may be
	// recycled once the borrower releases it, so a store that keeps the
	// checkpoint past return keeps a Clone instead.
	Put(k Key, ck *Checkpoint) error
	// Get retrieves the checkpoint stored under the key, or ErrNotFound.
	Get(k Key) (*Checkpoint, error)
	// Compare runs the two-phase buddy comparison between two stored
	// checkpoints without materializing either one's data.
	Compare(a, b Key) (CompareResult, error)
	// Evict drops every checkpoint with epoch < olderThan and returns
	// the number of task checkpoints removed.
	Evict(olderThan uint64) int
	// Counters returns a snapshot of the store's activity counters.
	Counters() Counters
	// Name identifies the backend in stats and trace events.
	Name() string
}

// Enumerator is the optional capability of tiers that can list their
// resident checkpoints — the inventory introspection the acrd control
// plane serves and validates resume journals against. The returned keys
// are a snapshot in no particular order.
type Enumerator interface {
	// Keys lists every resident task checkpoint.
	Keys() []Key
}

// EpochInventory summarizes an enumerable store's resident epochs as a map
// from epoch to resident task-checkpoint count. It returns nil when the
// store cannot enumerate.
func EpochInventory(s Store) map[uint64]int {
	e, ok := s.(Enumerator)
	if !ok {
		return nil
	}
	out := make(map[uint64]int)
	for _, k := range e.Keys() {
		out[k.Epoch]++
	}
	return out
}

// CompleteEpochs returns, ascending, the epochs for which the store holds
// all perReplica (= nodes × tasks) task checkpoints of each replica below
// replicas; keys of higher replicas are not counted. A running job's hot
// store holds both replicas of an epoch (replicas = 2). A durable tier
// keeps one copy per compared pair, replica 0's (replicas = 1), and so a
// tier written when durable tiers kept both replicas' copies still counts
// complete. Nil when the store cannot enumerate or nothing is complete.
func CompleteEpochs(s Store, replicas, perReplica int) []uint64 {
	e, ok := s.(Enumerator)
	if !ok || replicas <= 0 || perReplica <= 0 {
		return nil
	}
	inv := make(map[uint64]int)
	for _, k := range e.Keys() {
		if k.Replica < replicas {
			inv[k.Epoch]++
		}
	}
	var out []uint64
	for epoch, n := range inv {
		if n == replicas*perReplica {
			out = append(out, epoch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Volatile is the optional capability of tiers whose contents live in
// node memory and die with the nodes holding them. DropNode models the
// memory loss of a buddy-pair double fault: every epoch of the logical
// node's checkpoints is discarded. Non-volatile tiers (disk) simply do
// not implement it. Dropped checkpoints are never recycled into a pool:
// a recovery-mirrored checkpoint is stored under two keys, and the buddy
// key may still be live when one side is dropped.
type Volatile interface {
	// DropNode discards every stored checkpoint of the logical node
	// (all tasks, all epochs) and returns how many were dropped.
	DropNode(replica, node int) int
}

// Counters aggregates a store's activity. All fields are cumulative. The
// JSON tags are a stable lower_snake schema consumed by the acrd API and
// metrics exporter; renaming a tag is a breaking API change.
type Counters struct {
	Puts         int64 `json:"puts"`
	Gets         int64 `json:"gets"`
	Compares     int64 `json:"compares"`
	Mismatches   int64 `json:"mismatches"`    // compares that found a difference
	BytesWritten int64 `json:"bytes_written"` // payload bytes accepted by Put
	BytesRead    int64 `json:"bytes_read"`    // payload bytes materialized by Get
	BytesEvicted int64 `json:"bytes_evicted"`
	// ChunksStored counts the chunks every accepted Put stored.
	ChunksStored int64 `json:"chunks_stored"`
	// CompareTime is the cumulative wall time spent in Compare.
	CompareTime time.Duration `json:"compare_time_ns"`
	// LastLocalizedChunk is the chunk index of the most recent localized
	// mismatch, -1 when no mismatch has been localized yet.
	LastLocalizedChunk int64 `json:"last_localized_chunk"`
}

// counters is the embeddable atomic implementation behind Counters.
type counters struct {
	puts, gets, compares, mismatches      atomic.Int64
	bytesWritten, bytesRead, bytesEvicted atomic.Int64
	chunksStored                          atomic.Int64
	compareNanos                          atomic.Int64
	lastLocalized                         atomic.Int64
}

func newCounters() *counters {
	c := &counters{}
	c.lastLocalized.Store(-1)
	return c
}

func (c *counters) snapshot() Counters {
	return Counters{
		Puts:               c.puts.Load(),
		Gets:               c.gets.Load(),
		Compares:           c.compares.Load(),
		Mismatches:         c.mismatches.Load(),
		BytesWritten:       c.bytesWritten.Load(),
		BytesRead:          c.bytesRead.Load(),
		BytesEvicted:       c.bytesEvicted.Load(),
		ChunksStored:       c.chunksStored.Load(),
		CompareTime:        time.Duration(c.compareNanos.Load()),
		LastLocalizedChunk: c.lastLocalized.Load(),
	}
}

// recordCompare folds one comparison outcome into the counters.
func (c *counters) recordCompare(res CompareResult, elapsed time.Duration) {
	c.compares.Add(1)
	c.compareNanos.Add(int64(elapsed))
	if !res.Match {
		c.mismatches.Add(1)
		if res.Chunk >= 0 {
			c.lastLocalized.Store(int64(res.Chunk))
		}
	}
}

// compareVia is the shared Compare implementation for backends that can
// hand out *Checkpoint views cheaply.
func compareVia(c *counters, get func(Key) (*Checkpoint, error), a, b Key) (CompareResult, error) {
	ca, err := get(a)
	if err != nil {
		return CompareResult{}, fmt.Errorf("ckptstore: compare %v: %w", a, err)
	}
	cb, err := get(b)
	if err != nil {
		return CompareResult{}, fmt.Errorf("ckptstore: compare %v: %w", b, err)
	}
	began := time.Now()
	res := CompareCheckpoints(ca, cb)
	c.recordCompare(res, time.Since(began))
	return res, nil
}
