package runtime

import (
	"bytes"
	"testing"

	"acr/internal/ckptstore"
	"acr/internal/pup"
)

// TestCaptureReplicaPatchInPlace drives the patch-in-place ladder through
// the same store lifecycle the controller's commit protocol guarantees:
// capture epoch E, then evict everything older than E. The third capture
// must reuse the first capture's *Checkpoint — struct, Sums, and payload
// buffer — verbatim (pointer equality against the store), stay
// byte-identical to a from-scratch pack, and keep the pool out of the loop
// (retained checkpoints are dropped at eviction, not recycled).
func TestCaptureReplicaPatchInPlace(t *testing.T) {
	const nVals = 512
	const chunkSize = 256
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    1,
		Factory:         trackedVecFactory(nVals),
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	st := ckptstore.NewMem()
	pool := ckptstore.NewPool(0)
	st.SetPool(pool)
	opts := CaptureOptions{ChunkSize: chunkSize, workers: 1, ChunkWorkers: 1, Pool: pool, PatchCapture: true}
	addr := Addr{Replica: 0, Node: 0, Task: 0}
	key := func(epoch uint64) ckptstore.Key {
		return ckptstore.Key{Replica: 0, Node: 0, Task: 0, Epoch: epoch}
	}
	touch := func(el int, v float64) {
		m.CorruptTask(addr, func(p pup.Pupable) {
			g := p.(*trackedVecProg)
			spans := pup.FieldSpans(g)
			g.Vals[el] = v
			g.Iter++
			g.MarkSpan(spans["vals"].Slice(el, el+1, 8))
			g.MarkSpan(spans["iter"])
		})
	}
	captureAndCommit := func(epoch uint64) *ckptstore.Checkpoint {
		t.Helper()
		if err := m.CaptureReplica(0, epoch, st, opts); err != nil {
			t.Fatal(err)
		}
		st.Evict(epoch)
		ck, err := st.Get(key(epoch))
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}

	ck1 := captureAndCommit(1) // blind full capture
	touch(10, -10)
	ck2 := captureAndCommit(2) // copy-splice; ck1 becomes the patch base
	if pool.Len() != 0 {
		t.Fatalf("retained checkpoint leaked into the pool (len %d)", pool.Len())
	}
	pool.Put(ck1) // the pool drops a retained checkpoint
	if pool.Len() != 0 {
		t.Fatal("epoch-1 checkpoint should be retained as the patch base")
	}

	touch(20, -20)
	ck3 := captureAndCommit(3) // patch in place into ck1's buffer
	if ck3 != ck1 {
		t.Fatal("patch capture did not reuse the two-epochs-ago checkpoint in place")
	}
	if ck2 == ck3 {
		t.Fatal("patch capture must not write into the splice base")
	}

	// Byte-identity and checksum consistency against a from-scratch pack.
	var want []byte
	var err error
	m.CorruptTask(addr, func(p pup.Pupable) { want, err = pup.Pack(p) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck3.Bytes(), want) {
		t.Fatal("patched capture payload differs from a fresh pack")
	}
	fresh := ckptstore.Capture(append([]byte(nil), want...), chunkSize, 1)
	if fresh.Root != ck3.Root {
		t.Fatalf("patched root %x != fresh root %x", ck3.Root, fresh.Root)
	}

	// The ladder keeps cycling: epoch 4 patches into ck2's buffer.
	touch(30, -30)
	if ck4 := captureAndCommit(4); ck4 != ck2 {
		t.Fatal("epoch-4 capture did not cycle onto the other retained buffer")
	}
}

// TestRestartDropsPatchState is the recovery half: a restored incarnation
// must forget its patch base (patching against a pre-restore stream would
// splice stale bytes), fall back to a full capture, and only re-arm the
// ladder through the normal blind -> copy-splice -> patch sequence.
func TestRestartDropsPatchState(t *testing.T) {
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    1,
		Factory:         trackedVecFactory(64),
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	st := ckptstore.NewMem()
	pool := ckptstore.NewPool(0)
	st.SetPool(pool)
	opts := CaptureOptions{ChunkSize: 128, workers: 1, ChunkWorkers: 1, Pool: pool, PatchCapture: true}
	addr := Addr{Replica: 0, Node: 0, Task: 0}

	mark := func(el int) {
		m.CorruptTask(addr, func(p pup.Pupable) {
			g := p.(*trackedVecProg)
			spans := pup.FieldSpans(g)
			g.Vals[el] = float64(-el)
			g.MarkSpan(spans["vals"].Slice(el, el+1, 8))
		})
	}
	for e := uint64(1); e <= 3; e++ {
		if err := m.CaptureReplica(0, e, st, opts); err != nil {
			t.Fatal(err)
		}
		st.Evict(e)
		mark(int(e))
	}
	m.mu.RLock()
	s := m.slots[0][0][0]
	m.mu.RUnlock()
	s.mu.Lock()
	armed := s.patchCap != nil
	s.mu.Unlock()
	if !armed {
		t.Fatal("precondition: three committed captures should arm the patch ladder")
	}

	m.StopReplica(0)
	if err := m.RestartReplicaFromStore(0, 3, st); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	patchCap, lastCap := s.patchCap, s.lastCap
	s.mu.Unlock()
	if patchCap != nil || lastCap != nil {
		t.Fatal("restart must drop the patch base and splice base")
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}

	// The fresh incarnation's capture is blind and full, and must still be
	// byte-identical to a from-scratch pack.
	if err := m.CaptureReplica(0, 4, st, opts); err != nil {
		t.Fatal(err)
	}
	ck, err := st.Get(ckptstore.Key{Replica: 0, Node: 0, Task: 0, Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	m.CorruptTask(addr, func(p pup.Pupable) { want, err = pup.Pack(p) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.Bytes(), want) {
		t.Fatal("post-restart capture differs from a fresh pack")
	}
}
