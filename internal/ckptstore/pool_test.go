package ckptstore

import "testing"

func poolCkpt(size int) *Checkpoint {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	return Capture(data, 64, 1)
}

func TestPoolGetReturnsDistinctBuffers(t *testing.T) {
	p := NewPool(4)
	p.Put(poolCkpt(128))
	p.Put(poolCkpt(128))
	a := p.Get(64)
	b := p.Get(64)
	if a == b {
		t.Fatalf("two Gets returned the same checkpoint")
	}
	as, bs := a.Scratch(), b.Scratch()
	as = append(as, 1)
	bs = append(bs, 2)
	if &as[0] == &bs[0] {
		t.Fatalf("two Gets returned aliased payload buffers")
	}
	c := p.Get(64) // pool empty: fresh zero checkpoint
	if c == nil || c.Len() != 0 {
		t.Fatalf("Get on empty pool: got %+v, want fresh empty checkpoint", c)
	}
}

func TestPoolCapacityFit(t *testing.T) {
	p := NewPool(4)
	small := poolCkpt(32)
	large := poolCkpt(4096)
	p.Put(large)
	p.Put(small)
	// The most recent retiree (small) cannot hold 1024 bytes; the pool must
	// reach past it to the large one.
	got := p.Get(1024)
	if got != large {
		t.Fatalf("Get(1024) returned the small buffer (cap %d)", cap(got.Scratch()))
	}
	// With only the small one left, a too-big hint still returns it: the
	// struct and Sums are reusable even when the payload must grow.
	got = p.Get(1024)
	if got != small {
		t.Fatalf("Get(1024) on undersized pool: got %+v, want the small checkpoint", got)
	}
	ctrs := p.Counters()
	if ctrs.Hits != 1 || ctrs.Misses != 1 {
		t.Fatalf("counters after one fit and one forced reuse: %+v", ctrs)
	}
}

func TestPoolPutDedupesAndBounds(t *testing.T) {
	p := NewPool(2)
	ck := poolCkpt(64)
	p.Put(ck)
	p.Put(ck) // mirrored under two keys: same pointer retired twice
	if p.Len() != 1 {
		t.Fatalf("double Put of one pointer pooled %d entries, want 1", p.Len())
	}
	p.Put(poolCkpt(64))
	p.Put(poolCkpt(64)) // full
	if p.Len() != 2 {
		t.Fatalf("pool exceeded its bound: %d entries", p.Len())
	}
	p.Put(nil)
	ctrs := p.Counters()
	if ctrs.Drops != 2 { // one dedupe, one overflow; nil is not counted as a Put
		t.Fatalf("drops = %d, want 2 (%+v)", ctrs.Drops, ctrs)
	}
}

func TestMemEvictRecyclesIntoPool(t *testing.T) {
	s := NewMem()
	pool := NewPool(8)
	s.SetPool(pool)
	mirrored := poolCkpt(64)
	// The recovery path mirrors one checkpoint under both replicas' keys.
	if err := s.Put(Key{Replica: 0, Node: 0, Task: 0, Epoch: 1}, mirrored); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{Replica: 1, Node: 0, Task: 0, Epoch: 1}, mirrored); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(Key{Replica: 0, Node: 0, Task: 1, Epoch: 1}, poolCkpt(64)); err != nil {
		t.Fatal(err)
	}
	if n := s.Evict(2); n != 3 {
		t.Fatalf("Evict removed %d entries, want 3", n)
	}
	// Three store entries, but the mirrored pointer must be pooled once.
	if pool.Len() != 2 {
		t.Fatalf("pool holds %d checkpoints after evicting a mirrored pair + one, want 2", pool.Len())
	}
	a, b := pool.Get(0), pool.Get(0)
	if a == b {
		t.Fatalf("pooled mirrored checkpoint handed out twice")
	}
}

func TestPoolPutDropsRetained(t *testing.T) {
	p := NewPool(4)
	ck := poolCkpt(128)
	ck.SetRetained(true)
	p.Put(ck)
	if p.Len() != 0 {
		t.Fatalf("retained checkpoint entered the pool (len %d)", p.Len())
	}
	if ctrs := p.Counters(); ctrs.Drops != 1 || ctrs.Puts != 1 {
		t.Fatalf("counters = %+v, want Puts=1 Drops=1", ctrs)
	}
	ck.SetRetained(false)
	p.Put(ck)
	if p.Len() != 1 {
		t.Fatalf("released checkpoint rejected (len %d)", p.Len())
	}
	// Every capture-into resets the flag: a retained struct recycled by its
	// owner re-enters the normal lifecycle.
	ck.SetRetained(true)
	reborn := CaptureInto(ck, make([]byte, 64), 64, 1)
	if reborn.retained {
		t.Fatal("CaptureInto must clear the retained flag")
	}
}
