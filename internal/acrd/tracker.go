package acrd

import (
	"sync"

	"acr/internal/ckptstore"
)

// flushTracker wraps a job's durable tier to observe when an epoch becomes
// completely resident: once `want` distinct task checkpoints of one epoch
// have been accepted by the inner store, onComplete fires exactly once for
// that epoch. The daemon uses it to journal flush records at the moment
// the claim becomes true on disk — counting is done *after* the inner Put
// succeeds, so a journaled epoch was really accepted by the store.
//
// It sits between the fleet's bandwidth arbiter and the disk tier
// (core → hooked → arbiter → tracker → disk); ckptstore.Layer forwards
// everything it does not change, including the Enumerator capability the
// inventory endpoints read the disk through.
type flushTracker struct {
	ckptstore.Layer
	want       int
	onComplete func(epoch uint64)

	mu   sync.Mutex
	seen map[uint64]map[ckptstore.Key]struct{}
	done map[uint64]bool
}

func newFlushTracker(inner ckptstore.Store, want int, onComplete func(uint64)) *flushTracker {
	return &flushTracker{
		Layer:      ckptstore.Layer{Store: inner},
		want:       want,
		onComplete: onComplete,
		seen:       make(map[uint64]map[ckptstore.Key]struct{}),
		done:       make(map[uint64]bool),
	}
}

func (t *flushTracker) Put(k ckptstore.Key, ck *ckptstore.Checkpoint) error {
	if err := t.Store.Put(k, ck); err != nil {
		return err
	}
	var fire bool
	t.mu.Lock()
	if !t.done[k.Epoch] {
		set := t.seen[k.Epoch]
		if set == nil {
			set = make(map[ckptstore.Key]struct{}, t.want)
			t.seen[k.Epoch] = set
		}
		set[k] = struct{}{}
		if len(set) >= t.want {
			t.done[k.Epoch] = true
			delete(t.seen, k.Epoch)
			fire = true
		}
	}
	t.mu.Unlock()
	if fire && t.onComplete != nil {
		t.onComplete(k.Epoch)
	}
	return nil
}

// Evict forwards retention eviction. Journaled flush records for evicted
// epochs become stale claims on purpose — resume's disk scan is what
// weeds them out.
func (t *flushTracker) Evict(olderThan uint64) int {
	t.mu.Lock()
	for e := range t.seen {
		if e < olderThan {
			delete(t.seen, e)
		}
	}
	for e := range t.done {
		if e < olderThan {
			delete(t.done, e)
		}
	}
	t.mu.Unlock()
	return t.Store.Evict(olderThan)
}

func (t *flushTracker) Name() string { return t.Store.Name() + "(tracked)" }
