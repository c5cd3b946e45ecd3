package main

import (
	"sync"
	"time"

	"acr/internal/ckptstore"
)

// timedStore measures a checkpoint tier from outside: it wraps the store
// the benchmark hands to core.Config.FlushStore / RemoteStore, times every
// Put and Get, and records a span for each. Only the traced pass installs
// it; the untraced pass gives core the bare store.
type timedStore struct {
	inner  ckptstore.Store
	tr     *tracer
	parent int64
	label  string // span name prefix: "disk" or "remote"

	mu       sync.Mutex
	puts     []time.Duration
	gets     []time.Duration
	putBytes int64
}

func newTimedStore(inner ckptstore.Store, tr *tracer, parent int64, label string) *timedStore {
	return &timedStore{inner: inner, tr: tr, parent: parent, label: label}
}

func (s *timedStore) Put(k ckptstore.Key, ck *ckptstore.Checkpoint) error {
	id := s.tr.begin(s.parent, "ckptstore", s.label+".put")
	t0 := time.Now()
	err := s.inner.Put(k, ck)
	d := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.puts = append(s.puts, d)
	s.putBytes += int64(ck.Len())
	s.mu.Unlock()
	return err
}

func (s *timedStore) Get(k ckptstore.Key) (*ckptstore.Checkpoint, error) {
	id := s.tr.begin(s.parent, "ckptstore", s.label+".get")
	t0 := time.Now()
	ck, err := s.inner.Get(k)
	d := time.Since(t0)
	s.tr.end(id)
	s.mu.Lock()
	s.gets = append(s.gets, d)
	s.mu.Unlock()
	return ck, err
}

func (s *timedStore) Compare(a, b ckptstore.Key) (ckptstore.CompareResult, error) {
	return s.inner.Compare(a, b)
}
func (s *timedStore) Evict(olderThan uint64) int   { return s.inner.Evict(olderThan) }
func (s *timedStore) Counters() ckptstore.Counters { return s.inner.Counters() }
func (s *timedStore) Name() string                 { return s.inner.Name() }

// Inner lets ckptstore.ResilientStatsOf find the resilient layer through
// the wrapper.
func (s *timedStore) Inner() ckptstore.Store { return s.inner }

// Keys keeps the wrapped tier enumerable (ckptstore.Enumerator).
func (s *timedStore) Keys() []ckptstore.Key {
	if e, ok := s.inner.(ckptstore.Enumerator); ok {
		return e.Keys()
	}
	return nil
}

// samples returns copies of the recorded Put and Get durations and the
// payload bytes written.
func (s *timedStore) samples() (puts, gets []time.Duration, putBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.puts...), append([]time.Duration(nil), s.gets...), s.putBytes
}
