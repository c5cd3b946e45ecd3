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

// TestFlushBorrowLifetime holds every flush of a live job in its tier's Put
// while the job commits five epochs, so each tier writer keeps borrowing
// its epoch's hot-store checkpoints across later captures, evictions and
// pool traffic. No capture may land in a buffer a writer still borrows —
// not through the pool (the untracked program packs into pooled buffers)
// and not through the patch path (the tracked one patches its two-epochs-
// ago buffer in place) — and once the writers go on, every landed epoch
// must carry its committed root and payload.
func TestFlushBorrowLifetime(t *testing.T) {
	const rounds = 5
	for _, tc := range []struct {
		name    string
		tracked bool
	}{{"tracked", true}, {"untracked", false}} {
		t.Run(tc.name, func(t *testing.T) {
			gate := make(chan struct{})
			committed := map[ckptstore.Key]uint64{} // written before gate closes
			tier := &gatedStore{Layer: ckptstore.Layer{Store: ckptstore.NewMem()}, gate: gate}
			tier.check = func(k ckptstore.Key, ck *ckptstore.Checkpoint) {
				if !ck.Borrowed() {
					t.Errorf("%v reached the tier unborrowed: the flush copied it", k)
				}
				if ck.Root != committed[k] || payloadRoot(ck) != ck.Root {
					t.Errorf("%v changed while borrowed: root %#x, payload root %#x, committed %#x", k, ck.Root, payloadRoot(ck), committed[k])
				}
			}
			ctrl, err := New(Config{NodesPerReplica: 2, TasksPerNode: 2, Comparison: ChecksumCompare,
				Factory:    benchDirtyFactory(8192, 10, tc.tracked),
				FlushEvery: 1, FlushRetain: rounds, FlushStore: tier})
			if err != nil {
				t.Fatal(err)
			}
			if ctrl.pool == nil {
				t.Fatal("the controller runs without a pool: nothing here is exercised")
			}
			ctrl.start = time.Now()
			ctrl.machine.Start()
			defer ctrl.machine.Stop()
			buffers := map[*byte]ckptstore.Key{}
			total := 2 * ctrl.cfg.NodesPerReplica * ctrl.cfg.TasksPerNode
			for r := 0; r < rounds; r++ {
				if err := ctrl.checkpointRound(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < total; i++ {
					k := ctrl.denseKey(i, ctrl.committedEpoch)
					ck, err := ctrl.store.Get(k)
					if err != nil {
						t.Fatal(err)
					}
					committed[k] = ck.Root
					if prev, ok := buffers[&ck.Bytes()[0]]; ok {
						t.Fatalf("%v was captured into the buffer %v's writer still borrows", k, prev)
					}
					buffers[&ck.Bytes()[0]] = k
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
			for _, epoch := range ctrl.flush.index() {
				for i := 0; i < total; i++ {
					k := ctrl.denseKey(i, epoch)
					ck, err := tier.Get(k)
					if err != nil {
						t.Fatal(err)
					}
					if ck.Root != committed[k] || payloadRoot(ck) != ck.Root {
						t.Fatalf("landed %v reads back root %#x, payload root %#x, committed %#x", k, ck.Root, payloadRoot(ck), committed[k])
					}
				}
			}
			for i := 0; i < total; i++ {
				if ck, _ := ctrl.store.Get(ctrl.denseKey(i, ctrl.committedEpoch)); ck.Borrowed() {
					t.Fatalf("%v still borrowed after its writer finished", ctrl.denseKey(i, ctrl.committedEpoch))
				}
			}
		})
	}
}

// TestAtRestFlipStaysOnTierCopy flips a bit of every checkpoint a Mem
// durable tier accepts, at its ckptstore.write firing. The flush lends the
// tier the hot store's own checkpoints, so the flip must land on the copy
// the tier keeps and never on the committed checkpoint in the hot store.
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
	total := 2 * ctrl.cfg.NodesPerReplica * ctrl.cfg.TasksPerNode
	for r := 0; r < rounds; r++ {
		if err := ctrl.checkpointRound(); err != nil {
			t.Fatal(err)
		}
		ctrl.flush.wg.Wait()
		for i := 0; i < total; i++ {
			k := ctrl.denseKey(i, ctrl.committedEpoch)
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
	if got, want := flips.Load(), int64(rounds*total); got != want {
		t.Fatalf("flipped %d tier writes, want %d", got, want)
	}
	if n := ctrl.stats.SDCDetected; n > 0 {
		t.Fatalf("SDC detected (%d): a tier flip reached a compared checkpoint", n)
	}
}
