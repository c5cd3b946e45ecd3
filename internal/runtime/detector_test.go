package runtime

import (
	"bytes"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"acr/internal/chaos/point"
	"acr/internal/pup"
)

// tickHook closes reached once detector ticks have fired
// point.RuntimeHeartbeat for every physical node id below want.
type tickHook struct {
	mu      sync.Mutex
	want    int
	nodes   map[int]bool
	reached chan struct{}
}

func (h *tickHook) Fire(id point.ID, info *point.Info) {
	if id != point.RuntimeHeartbeat {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nodes[info.Node] || info.Node >= h.want {
		return
	}
	h.nodes[info.Node] = true
	if len(h.nodes) == h.want {
		close(h.reached)
	}
}

// machineGoroutines counts the live goroutines a Machine started: the ones
// whose stack runs or was created by one of its methods.
func machineGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:goruntime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("acr/internal/runtime.(*Machine).")) {
			n++
		}
	}
	return n
}

// idleFactory's tasks wait for a message that never comes, until a kill or
// Stop interrupts them.
func idleFactory(Addr) Program {
	return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
		_, err := ctx.Recv()
		return err
	}}
}

// TestOneDetectorGoroutine: failure detection costs one goroutine per
// machine, however many physical nodes it has, spares included.
func TestOneDetectorGoroutine(t *testing.T) {
	const nodes, spares = 2, 16
	gate := newParkGate(0, 2*nodes)
	hook := &tickHook{want: 2*nodes + spares, nodes: make(map[int]bool), reached: make(chan struct{})}
	m := newTestMachine(t, Config{
		NodesPerReplica:   nodes,
		TasksPerNode:      1,
		Spares:            spares,
		Factory:           ringFactory(1 << 30),
		Gate:              gate,
		HeartbeatInterval: time.Millisecond,
		HeartbeatTimeout:  8 * time.Millisecond,
		Chaos:             hook,
	})
	m.Start()
	gate.waitAllParked(t)
	select {
	case <-hook.reached:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat never reached every node")
	}
	// A goroutine of a machine an earlier test stopped may still be on its
	// way out, so the count has a moment to settle; it can only fall.
	want := 2*nodes + 1
	deadline := time.Now().Add(5 * time.Second)
	for got := machineGoroutines(); got != want; got = machineGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("machine runs %d goroutines with its %d tasks parked, want %d (one per task + one detector)", got, 2*nodes, want)
		}
		goruntime.Gosched()
	}
	gate.releaseAll()
}

// TestAddedSpareDetectedAfterTimeout: a node added by AddSpare is reported
// like a launch-time node — once, and no earlier than HeartbeatTimeout after
// its kill, however long ago it joined.
func TestAddedSpareDetectedAfterTimeout(t *testing.T) {
	const timeout = 30 * time.Millisecond
	m := newTestMachine(t, Config{
		NodesPerReplica:   2,
		TasksPerNode:      1,
		Factory:           idleFactory,
		HeartbeatInterval: time.Millisecond,
		HeartbeatTimeout:  timeout,
	})
	m.Start()
	kill := func(rep, node int) int {
		t.Helper()
		killed := time.Now()
		phys := m.Kill(rep, node)
		select {
		case f := <-m.Failures():
			if f.Replica != rep || f.Node != node || f.Phys != phys {
				t.Fatalf("killed r%d/n%d (phys %d), detector reported %+v", rep, node, phys, f)
			}
			if lat := f.Time.Sub(killed); lat < timeout {
				t.Fatalf("phys %d reported %v after its kill, before the %v timeout", phys, lat, timeout)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("kill of r%d/n%d never detected", rep, node)
		}
		return phys
	}
	// The spare joins a running detector, and the next detection takes a
	// timeout, so the spare has been in the machine longer than that when
	// it is killed.
	kill(0, 0)
	spare := m.AddSpare()
	kill(1, 1)
	if err := m.ReplaceWithSpare(0, 0); err != nil {
		t.Fatal(err)
	}
	if phys := kill(0, 0); phys != spare {
		t.Fatalf("r0/n0 ran on phys %d, want the added spare %d", phys, spare)
	}
	// Reports arrive in order, so a second report of the spare would come
	// before this one.
	kill(1, 0)
	m.Stop()
	select {
	case f := <-m.Failures():
		t.Fatalf("reported after every kill was: %+v", f)
	default:
	}
}
