package consensus

import (
	"sync"
	"sync/atomic"
	"testing"

	"acr/internal/runtime"
)

// TestReportersNeverPassTheCut hammers the lock-free Report from one
// goroutine per task while a driver runs Request → ready → Release 2,000
// times. The reporters honour the gate contract (report every iteration, stop
// while parked), so each decided cut must be met exactly: each replica is
// handed exactly once, at the target Request picked — a reporter that
// slipped past it unseen would have escalated it — every participant is
// parked with its last report equal to the target, targets strictly
// increase, and nothing is handed after Release.
func TestReportersNeverPassTheCut(t *testing.T) {
	const nodes, tasks, rounds = 2, 2, 2000
	c := New(nodes, tasks)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var addrs []runtime.Addr
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for tk := 0; tk < tasks; tk++ {
				addrs = append(addrs, runtime.Addr{Replica: rep, Node: n, Task: tk})
			}
		}
	}
	// at[i] is the iteration reporter i is executing or parked at, published
	// by the reporter itself just before it reports.
	at := make([]atomic.Int64, len(addrs))
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; ; iter++ {
				at[i].Store(int64(iter))
				if ch := c.Report(addr, iter); ch != nil {
					select {
					case <-ch:
					case <-stop:
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	last := -1
	for round := 0; round < rounds; round++ {
		ready, err := c.Request(BothReplicas)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		decided := c.target
		c.mu.Unlock()
		var handed [2]int
		for range 2 {
			h := <-ready
			if h.Target != decided {
				t.Fatalf("round %d: cut decided at %d handed replica %d at %d: a reporter ran past the target", round, decided, h.Replica, h.Target)
			}
			handed[h.Replica]++
		}
		if handed != [2]int{1, 1} {
			t.Fatalf("round %d: handoffs per replica %v, want one each", round, handed)
		}
		target := decided
		if target <= last {
			t.Fatalf("round %d: target %d after %d, want strictly increasing", round, target, last)
		}
		last = target
		if n := c.ParkedCount(); n != len(addrs) {
			t.Fatalf("round %d: %d of %d participants parked at ready", round, n, len(addrs))
		}
		for i, addr := range addrs {
			if got := c.Progress(addr); got != target {
				t.Fatalf("round %d: %v parked having reported %d, target %d", round, addr, got, target)
			}
			if got := int(at[i].Load()); got != target {
				t.Fatalf("round %d: %v is at iteration %d while the cut at %d is held", round, addr, got, target)
			}
		}
		c.Release()
		if h, ok := <-ready; ok {
			t.Fatalf("round %d: handoff %+v after Release", round, h)
		}
	}
}

// TestQuiescentAccounting drives the done/parked bookkeeping behind the
// readiness counter directly: a task that is both parked (a stale entry left
// by an incarnation that died mid-round) and done counts once, and Undone
// takes completed tasks out of the count again.
func TestQuiescentAccounting(t *testing.T) {
	c := New(1, 2)
	a0 := runtime.Addr{Replica: 0, Node: 0, Task: 0}
	a1 := runtime.Addr{Replica: 0, Node: 0, Task: 1}
	isReady := func(ready <-chan Handoff) bool {
		select {
		case <-ready:
			return true
		default:
			return false
		}
	}

	ready, err := c.Request(OnlyReplica(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Report(a0, 0) == nil {
		t.Fatal("a0 should park at the target")
	}
	c.Done(a0) // parked and done: still one participant
	if isReady(ready) {
		t.Fatal("cut became ready with a1 neither parked nor done")
	}
	c.Done(a1)
	if !isReady(ready) {
		t.Fatal("cut should be ready: both tasks done")
	}
	c.Release()
	if c.ParkedCount() != 0 {
		t.Fatalf("release left %d parked", c.ParkedCount())
	}

	// Replica 0 is rolled back: nothing is done any more, progress forgotten.
	c.Undone(0)
	c.ForgetProgress(0)
	ready, err = c.Request(OnlyReplica(0))
	if err != nil {
		t.Fatal(err)
	}
	if isReady(ready) {
		t.Fatal("cut ready right after Undone: completion marks survived")
	}
	if c.Report(a0, 0) == nil || isReady(ready) {
		t.Fatal("a0 should park at target 0 and the cut wait for a1")
	}
	if c.Report(a1, 0) == nil || !isReady(ready) {
		t.Fatal("a1 parking at the target should complete the cut")
	}
	c.Release()
}

// BenchmarkReportIdle is the per-iteration cost every task pays outside a
// round, from all processors at once, each on its own task.
func BenchmarkReportIdle(b *testing.B) {
	const nodes = 64
	c := New(nodes, 1)
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		id := int(next.Add(1)-1) % (2 * nodes)
		addr := runtime.Addr{Replica: id % 2, Node: id / 2}
		for iter := 0; pb.Next(); iter++ {
			if c.Report(addr, iter) != nil {
				b.Error("idle report parked")
				return
			}
		}
	})
}
