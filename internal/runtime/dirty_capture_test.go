package runtime

import (
	"bytes"
	"testing"

	"acr/internal/ckptstore"
	"acr/internal/pup"
)

// trackedVecProg is a minimal write-tracking program: a flat float vector
// plus an iteration counter. Run completes immediately (the tests drive
// state mutation through CorruptTask at quiescence), which keeps every
// capture deterministic.
type trackedVecProg struct {
	pup.WriteSet
	Iter int
	Vals []float64
}

func (g *trackedVecProg) Pup(p *pup.PUPer) {
	p.Label("iter")
	p.Int(&g.Iter)
	p.Label("vals")
	p.Float64s(&g.Vals)
}

func (g *trackedVecProg) Run(ctx *Ctx) error { return nil }

func trackedVecFactory(n int) Factory {
	return func(addr Addr) Program {
		g := &trackedVecProg{Vals: make([]float64, n)}
		for i := range g.Vals {
			g.Vals[i] = float64(i)
		}
		return g
	}
}

// TestCaptureReplicaDirtySplice drives the full incremental path: first
// capture full (blind tracker), second capture after a single marked
// element write must splice clean chunks and clean bytes, and the stored
// payload must stay byte-identical to a from-scratch pack. A restore then
// blinds the tracker again.
func TestCaptureReplicaDirtySplice(t *testing.T) {
	const nVals = 256 // 8-byte elements -> 2 KiB of bulk data
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
	opts := CaptureOptions{ChunkSize: chunkSize, workers: 1, ChunkWorkers: 1}
	addr := Addr{Replica: 0, Node: 0, Task: 0}

	if err := m.CaptureReplica(0, 1, st, opts); err != nil {
		t.Fatal(err)
	}
	if packed, reused, bytesReused := m.DirtyCounters(); packed != 0 || reused != 0 || bytesReused != 0 {
		t.Fatalf("first capture must be blind/full, got dirty counters %d/%d/%d", packed, reused, bytesReused)
	}

	// One element write, honestly marked.
	var spans map[string]pup.Range
	m.CorruptTask(addr, func(p pup.Pupable) {
		g := p.(*trackedVecProg)
		spans = pup.FieldSpans(g)
		g.Vals[10] = -123.5
		g.Iter++
		g.MarkSpan(spans["vals"].Slice(10, 11, 8))
		g.MarkSpan(spans["iter"])
	})
	if err := m.CaptureReplica(0, 2, st, opts); err != nil {
		t.Fatal(err)
	}
	packed, reused, bytesReused := m.DirtyCounters()
	if reused == 0 || bytesReused == 0 {
		t.Fatalf("tracked capture spliced nothing: packed=%d reused=%d bytesReused=%d", packed, reused, bytesReused)
	}
	if packed > 2 {
		t.Fatalf("single-element write recomputed %d chunks, want <= 2", packed)
	}

	// The stored payload must equal a from-scratch pack of the live state.
	ck, err := st.Get(ckptstore.Key{Replica: 0, Node: 0, Task: 0, Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	m.CorruptTask(addr, func(p pup.Pupable) {
		want, err = pup.Pack(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck.Bytes(), want) {
		t.Fatal("spliced capture payload differs from a fresh pack")
	}
	// And its checksums must match a from-scratch capture of the payload.
	fresh := ckptstore.Capture(append([]byte(nil), want...), chunkSize, 1)
	if fresh.Root != ck.Root {
		t.Fatalf("spliced root %x != fresh root %x", ck.Root, fresh.Root)
	}

	// Round-trip: restore from the spliced capture and re-capture; the
	// fresh incarnation is blind, so the dirty counters must not move.
	m.StopReplica(0)
	if err := m.RestartReplicaFromStore(0, 2, st); err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := m.CaptureReplica(0, 3, st, opts); err != nil {
		t.Fatal(err)
	}
	if p2, r2, b2 := m.DirtyCounters(); p2 != packed || r2 != reused || b2 != bytesReused {
		t.Fatalf("post-restore capture moved dirty counters: %d/%d/%d -> %d/%d/%d",
			packed, reused, bytesReused, p2, r2, b2)
	}
	ck3, err := st.Get(ckptstore.Key{Replica: 0, Node: 0, Task: 0, Epoch: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ck3.Bytes(), want) {
		t.Fatal("restored state did not round-trip byte-identically")
	}
}

// TestRestartResetsSizeHint is the recovery regression test: a task
// restored from an older, larger epoch must take its size hint from the
// restored payload, not keep the pre-failure hint (which would force the
// first post-recovery capture through the overflow slow path). The splice
// base must be dropped too.
func TestRestartResetsSizeHint(t *testing.T) {
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
	opts := CaptureOptions{ChunkSize: 256, workers: 1, ChunkWorkers: 1}
	addr := Addr{Replica: 0, Node: 0, Task: 0}

	// Epoch 1: the large state.
	if err := m.CaptureReplica(0, 1, st, opts); err != nil {
		t.Fatal(err)
	}
	big, err := st.Get(ckptstore.Key{Replica: 0, Node: 0, Task: 0, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The state shrinks; epoch 2's capture leaves a small hint behind.
	m.CorruptTask(addr, func(p pup.Pupable) {
		g := p.(*trackedVecProg)
		g.Vals = g.Vals[:8]
	})
	if err := m.CaptureReplica(0, 2, st, opts); err != nil {
		t.Fatal(err)
	}
	if hint := m.sizeHint(addr); hint >= big.Len() {
		t.Fatalf("precondition: post-shrink hint %d should be smaller than the old payload %d", hint, big.Len())
	}

	// Recovery escalates to the older epoch 1 (ladder tier behavior).
	m.StopReplica(0)
	if err := m.RestartReplicaFromStore(0, 1, st); err != nil {
		t.Fatal(err)
	}
	if hint := m.sizeHint(addr); hint != big.Len() {
		t.Fatalf("restored hint = %d, want restored payload length %d", hint, big.Len())
	}
	m.mu.RLock()
	s := m.slots[0][0][0]
	m.mu.RUnlock()
	s.mu.Lock()
	lastCap := s.lastCap
	s.mu.Unlock()
	if lastCap != nil {
		t.Fatal("restart must drop the splice base")
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}

	// The first post-recovery capture must take the single-pass fast path.
	fastBefore, slowBefore := m.PackCounters()
	if err := m.CaptureReplica(0, 3, st, opts); err != nil {
		t.Fatal(err)
	}
	fastAfter, slowAfter := m.PackCounters()
	if fastAfter != fastBefore+1 || slowAfter != slowBefore {
		t.Fatalf("post-recovery capture took the slow path (fast %d->%d, slow %d->%d)",
			fastBefore, fastAfter, slowBefore, slowAfter)
	}
}
