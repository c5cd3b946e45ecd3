package core

import (
	"sync/atomic"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/checksum"
	"acr/internal/ckptstore"
)

// gatedStore is a durable tier whose every Put waits until the test closes
// gate, then hands the checkpoint to check before storing it.
type gatedStore struct {
	ckptstore.Layer
	gate  <-chan struct{}
	check func(ckptstore.Key, *ckptstore.Checkpoint)
}

func (s *gatedStore) Put(k ckptstore.Key, ck *ckptstore.Checkpoint) error {
	<-s.gate
	s.check(k, ck)
	return s.Store.Put(k, ck)
}

// payloadRoot recomputes a checkpoint's root from its payload.
func payloadRoot(ck *ckptstore.Checkpoint) uint64 {
	root, _ := checksum.Fletcher64Chunks(ck.Bytes(), ck.ChunkSize, 1)
	return root
}

// startGated starts a machine whose every flush (FlushEvery 1) waits in a
// gated tier Put until the test closes gate; tier.check is left to the
// caller. Rounds are driven with checkpointRound on the test goroutine.
func startGated(t *testing.T, tracked bool, retain int) (*Controller, *gatedStore, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	tier := &gatedStore{Layer: ckptstore.Layer{Store: ckptstore.NewMem()}, gate: gate,
		check: func(ckptstore.Key, *ckptstore.Checkpoint) {}}
	ctrl, err := New(Config{NodesPerReplica: 2, TasksPerNode: 2, Comparison: ChecksumCompare,
		Factory:    benchDirtyFactory(8192, 10, tracked),
		FlushEvery: 1, FlushRetain: retain, FlushStore: tier})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.pool == nil {
		t.Fatal("the controller runs without a pool: nothing here is exercised")
	}
	ctrl.start = time.Now()
	ctrl.machine.Start()
	t.Cleanup(ctrl.machine.Stop)
	return ctrl, tier, gate
}

// TestFlushBorrowLifetime holds every flush of a live job in its tier's Put
// while the job commits five epochs, so each tier writer keeps borrowing
// its epoch's pair copies (replica 0's hot-store checkpoints) across later
// captures, evictions and pool traffic. No capture may land in a buffer a
// writer still borrows — not through the pool (the untracked program packs
// into pooled buffers) and not through the patch path (the tracked one
// patches its two-epochs-ago buffer in place) — and once the writers go on,
// the tier holds exactly the N·T pair copies of every landed epoch, each
// with its committed root and payload.
func TestFlushBorrowLifetime(t *testing.T) {
	const rounds = 5
	for _, tc := range []struct {
		name    string
		tracked bool
	}{{"tracked", true}, {"untracked", false}} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, tier, gate := startGated(t, tc.tracked, rounds)
			committed := map[ckptstore.Key]uint64{} // written before gate closes
			tier.check = func(k ckptstore.Key, ck *ckptstore.Checkpoint) {
				if k.Replica != 0 {
					t.Errorf("%v reached the tier: a durable tier keeps replica 0's copy only", k)
				}
				if !ck.Borrowed() {
					t.Errorf("%v reached the tier unborrowed: the flush copied it", k)
				}
				if ck.Root != committed[k] || payloadRoot(ck) != ck.Root {
					t.Errorf("%v changed while borrowed: root %#x, payload root %#x, committed %#x", k, ck.Root, payloadRoot(ck), committed[k])
				}
			}
			borrowed := map[*byte]ckptstore.Key{}
			pairs := len(ctrl.outcomes)
			for r := 0; r < rounds; r++ {
				if err := ctrl.checkpointRound(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pairs; i++ {
					k := ctrl.pairKey(i, ctrl.committedEpoch)
					for rep := 0; rep < 2; rep++ {
						k.Replica = rep
						ck, err := ctrl.store.Get(k)
						if err != nil {
							t.Fatal(err)
						}
						if prev, ok := borrowed[&ck.Bytes()[0]]; ok {
							t.Fatalf("%v was captured into the buffer %v's writer still borrows", k, prev)
						}
						if rep == 0 {
							committed[k] = ck.Root
							borrowed[&ck.Bytes()[0]] = k
						}
					}
				}
			}
			close(gate)
			for _, tr := range ctrl.tiers {
				tr.wg.Wait()
			}
			if n := ctrl.stats.SDCDetected; n > 0 {
				t.Fatalf("spurious SDC detected (%d)", n)
			}
			if got := ctrl.flush.index(); len(got) != rounds {
				t.Fatalf("landed epochs %v, want %d (flush errors %d)", got, rounds, ctrl.flush.errs.Load())
			}
			if got, want := tier.Counters().Puts, int64(rounds*pairs); got != want {
				t.Fatalf("tier took %d Puts for %d flushed epochs, want %d (N·T per epoch)", got, rounds, want)
			}
			for _, epoch := range ctrl.flush.index() {
				for i := 0; i < pairs; i++ {
					k := ctrl.pairKey(i, epoch)
					ck, err := tier.Get(k)
					if err != nil {
						t.Fatal(err)
					}
					if ck.Root != committed[k] || payloadRoot(ck) != ck.Root {
						t.Fatalf("landed %v reads back root %#x, payload root %#x, committed %#x", k, ck.Root, payloadRoot(ck), committed[k])
					}
				}
			}
			for i := 0; i < pairs; i++ {
				if ck, _ := ctrl.store.Get(ctrl.pairKey(i, ctrl.committedEpoch)); ck.Borrowed() {
					t.Fatalf("%v still borrowed after its writer finished", ctrl.pairKey(i, ctrl.committedEpoch))
				}
			}
		})
	}
}

// TestReplicaOneRecycledWhileWriterBorrows: a durable tier borrows only the
// pair copy, so while every tier writer is held in its Put, replica 1's
// committed checkpoints still come back to the capture path once their
// epoch is evicted — through the pool (untracked) or as the patch base
// (tracked) — instead of waiting for the writer like replica 0's.
func TestReplicaOneRecycledWhileWriterBorrows(t *testing.T) {
	const rounds = 5
	for _, tc := range []struct {
		name    string
		tracked bool
	}{{"tracked", true}, {"untracked", false}} {
		t.Run(tc.name, func(t *testing.T) {
			ctrl, tier, gate := startGated(t, tc.tracked, rounds)
			defer func() {
				close(gate)
				ctrl.flush.wg.Wait()
			}()
			var writing atomic.Int64
			tier.check = func(ckptstore.Key, *ckptstore.Checkpoint) { writing.Add(1) }
			replicaOne := map[*byte]uint64{} // buffer → epoch it held replica 1's checkpoint of
			recycled := 0
			pairs := len(ctrl.outcomes)
			for r := 0; r < rounds; r++ {
				if err := ctrl.checkpointRound(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < pairs; i++ {
					k := ctrl.pairKey(i, ctrl.committedEpoch)
					for rep := 0; rep < 2; rep++ {
						k.Replica = rep
						ck, err := ctrl.store.Get(k)
						if err != nil {
							t.Fatal(err)
						}
						buf := &ck.Bytes()[0]
						if e, ok := replicaOne[buf]; ok && e < ctrl.committedEpoch {
							recycled++
						}
						if rep == 1 {
							replicaOne[buf] = ctrl.committedEpoch
						}
					}
				}
			}
			if writing.Load() != 0 {
				t.Fatal("a tier writer went past the gate")
			}
			if ctrl.flush.index() != nil {
				t.Fatalf("epochs %v landed while every writer was held", ctrl.flush.index())
			}
			if recycled == 0 {
				t.Fatalf("no capture in %d rounds reused a buffer of replica 1's evicted checkpoints while the writers held the pair copies (pool %+v)",
					rounds, ctrl.pool.Counters())
			}
		})
	}
}

// TestAdoptReadsPairCopyOnce checks the durable tier's traffic through its
// Counters: a Disk flush tier takes exactly N·T Puts per flushed epoch, and
// an adoption of one of its epochs does exactly N·T Gets. The hot store then
// holds both replicas' keys of the adopted epoch as one pointer per pair,
// which the pool takes back once when the epoch is evicted.
func TestAdoptReadsPairCopyOnce(t *testing.T) {
	const rounds = 4
	disk, err := ckptstore.NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ctrl, err := New(Config{NodesPerReplica: 2, TasksPerNode: 2, Comparison: ChecksumCompare,
		Factory:    benchDirtyFactory(4096, 25, false),
		FlushEvery: 1, FlushRetain: rounds, FlushStore: disk})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.start = time.Now()
	ctrl.machine.Start()
	defer ctrl.machine.Stop()
	pairs := len(ctrl.outcomes)
	for r := 0; r < rounds; r++ {
		if err := ctrl.checkpointRound(); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.flush.wg.Wait()
	epochs := ctrl.flush.index()
	if len(epochs) != rounds {
		t.Fatalf("landed epochs %v, want %d", epochs, rounds)
	}
	before := disk.Counters()
	if want := int64(rounds * pairs); before.Puts != want {
		t.Fatalf("disk tier took %d Puts for %d flushed epochs, want %d (N·T per epoch)", before.Puts, rounds, want)
	}
	if keys := disk.Keys(); len(keys) != rounds*pairs {
		t.Fatalf("disk tier holds %d checkpoints, want %d", len(keys), rounds*pairs)
	}

	epoch := epochs[1] // an older epoch: the hot store has evicted it
	if touched, err := ctrl.adopt(candidate{st: ctrl.flush.store, name: "durable", epoch: epoch}); err != nil || !touched {
		t.Fatalf("adopt epoch %d: touched %v, %v", epoch, touched, err)
	}
	if got := disk.Counters().Gets - before.Gets; got != int64(pairs) {
		t.Fatalf("adoption did %d Gets, want %d (one per compared pair)", got, pairs)
	}
	for i := 0; i < pairs; i++ {
		k := ctrl.pairKey(i, epoch)
		r0, err := ctrl.store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		k.Replica = 1
		r1, err := ctrl.store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if r0 != r1 {
			t.Fatalf("%v: the hot store holds two copies of the adopted pair, want one pointer", k)
		}
	}
	pool := ctrl.pool.Counters()
	free := ctrl.pool.Len()
	if n := ctrl.store.Evict(epoch + 1); n != 2*pairs {
		t.Fatalf("evicting the adopted epoch dropped %d keys, want %d", n, 2*pairs)
	}
	after := ctrl.pool.Counters()
	if got := after.Puts - pool.Puts; got != int64(2*pairs) {
		t.Fatalf("eviction handed the pool %d checkpoints, want %d (both keys)", got, 2*pairs)
	}
	if got := ctrl.pool.Len() - free; got != pairs {
		t.Fatalf("the pool took back %d checkpoints, want %d (each shared pointer once)", got, pairs)
	}
}

// TestAtRestFlipStaysOnTierCopy flips a bit of every checkpoint a Mem
// durable tier accepts, at its ckptstore.write firing. The flush lends the
// tier the hot store's own pair copies (replica 0's checkpoints), so the
// flip must land on the copy the tier keeps and never on the committed
// checkpoint in the hot store.
func TestAtRestFlipStaysOnTierCopy(t *testing.T) {
	const rounds = 4
	var committed atomic.Uint64
	var flips atomic.Int64
	tier := ckptstore.NewMem()
	ctrl, err := New(Config{NodesPerReplica: 2, TasksPerNode: 1, Comparison: ChecksumCompare,
		Factory:    benchDirtyFactory(4096, 25, true),
		FlushEvery: 1, FlushRetain: rounds, FlushStore: tier,
		Chaos: point.HookFunc(func(id point.ID, info *point.Info) {
			switch {
			case id == point.CoreCommit:
				committed.Store(info.Epoch)
			case id == point.StoreWrite && info.Epoch <= committed.Load():
				// A committed epoch is written by the flush, never by a capture.
				data := info.Payload.(*ckptstore.Checkpoint).MutableBytes()
				data[len(data)-1] ^= 0x04
				flips.Add(1)
			}
		})})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.start = time.Now()
	ctrl.machine.Start()
	defer ctrl.machine.Stop()
	pairs := len(ctrl.outcomes)
	for r := 0; r < rounds; r++ {
		if err := ctrl.checkpointRound(); err != nil {
			t.Fatal(err)
		}
		ctrl.flush.wg.Wait()
		for i := 0; i < pairs; i++ {
			k := ctrl.pairKey(i, ctrl.committedEpoch)
			hot, err := ctrl.store.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if payloadRoot(hot) != hot.Root {
				t.Fatalf("a flip on the durable tier's write of %v reached the hot store", k)
			}
			at, err := tier.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if at == hot || payloadRoot(at) == at.Root {
				t.Fatalf("the durable tier's copy of %v does not carry the flip", k)
			}
		}
	}
	if got, want := flips.Load(), int64(rounds*pairs); got != want {
		t.Fatalf("flipped %d tier writes, want %d", got, want)
	}
	if n := ctrl.stats.SDCDetected; n > 0 {
		t.Fatalf("SDC detected (%d): a tier flip reached a compared checkpoint", n)
	}
}
