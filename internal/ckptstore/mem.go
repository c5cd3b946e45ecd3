package ckptstore

import (
	"sync"
)

// Mem is the in-memory buddy tier: the double in-memory checkpoint of
// §2.1, now chunked. It retains checkpoints by reference (capture hands
// the buffer over), so Put is O(1) in data size and Get is free — exactly
// the "local checkpoint in memory" cost profile the paper's delta
// parameter assumes.
type Mem struct {
	mu   sync.RWMutex
	m    map[Key]*Checkpoint
	ctrs *counters
	pool *Pool
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{m: make(map[Key]*Checkpoint), ctrs: newCounters()}
}

// Name implements Store.
func (s *Mem) Name() string { return "mem" }

// Put implements Store. A borrowed checkpoint is stored as a copy.
func (s *Mem) Put(k Key, ck *Checkpoint) error {
	if ck.Borrowed() {
		ck = ck.Clone()
	}
	s.mu.Lock()
	s.m[k] = ck
	s.mu.Unlock()
	s.ctrs.puts.Add(1)
	s.ctrs.bytesWritten.Add(int64(ck.Len()))
	s.ctrs.chunksStored.Add(int64(ck.NumChunks()))
	return nil
}

func (s *Mem) lookup(k Key) (*Checkpoint, error) {
	s.mu.RLock()
	ck, ok := s.m[k]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	return ck, nil
}

// Get implements Store.
func (s *Mem) Get(k Key) (*Checkpoint, error) {
	ck, err := s.lookup(k)
	if err != nil {
		return nil, err
	}
	s.ctrs.gets.Add(1)
	s.ctrs.bytesRead.Add(int64(ck.Len()))
	return ck, nil
}

// Compare implements Store.
func (s *Mem) Compare(a, b Key) (CompareResult, error) {
	return compareVia(s.ctrs, s.lookup, a, b)
}

// SetPool implements Recycler: subsequent Evicts retire dropped
// checkpoints into pool for reuse by later captures. Only attach a pool
// when this store is owned exclusively by one controller — recycling
// invalidates evicted payloads, so no external reader may hold Bytes() of
// an epoch that can still be evicted.
func (s *Mem) SetPool(pool *Pool) {
	s.mu.Lock()
	s.pool = pool
	s.mu.Unlock()
}

// Evict implements Store.
func (s *Mem) Evict(olderThan uint64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, ck := range s.m {
		if k.Epoch < olderThan {
			s.ctrs.bytesEvicted.Add(int64(ck.Len()))
			delete(s.m, k)
			if s.pool != nil {
				// Pool.Put never calls back into the store, so recycling
				// under the store lock is deadlock-free; it dedupes
				// checkpoints mirrored under two keys (the recovery path)
				// by pointer.
				s.pool.Put(ck)
			}
			n++
		}
	}
	return n
}

// DropNode implements Volatile: both in-memory copies of a buddy pair
// died with their nodes, so every epoch of the logical node's checkpoints
// is gone. Unlike Evict, dropped checkpoints are NOT recycled into the
// pool — the recovery path mirrors one *Checkpoint under two keys, and
// the surviving key may still be referenced.
func (s *Mem) DropNode(replica, node int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k, ck := range s.m {
		if k.Replica == replica && k.Node == node {
			s.ctrs.bytesEvicted.Add(int64(ck.Len()))
			delete(s.m, k)
			n++
		}
	}
	return n
}

// Keys implements Enumerator.
func (s *Mem) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Key, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}

// Counters implements Store.
func (s *Mem) Counters() Counters { return s.ctrs.snapshot() }

// Len returns the number of stored task checkpoints (for tests).
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
