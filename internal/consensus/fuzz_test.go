package consensus

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"acr/internal/runtime"
)

// Model-level fuzz of the coordinator, without a machine: goroutines
// emulate tasks that report strictly increasing iterations and obey the
// gate (blocking on returned channels), in random interleavings. The
// protocol invariants must hold in every schedule:
//
//  1. a requested round terminates (Ready fires);
//  2. the decided target is at least every pre-request report;
//  3. at Ready, every non-done participant is parked at >= target;
//  4. after Release, all tasks run on unimpeded.
func TestCoordinatorFuzz(t *testing.T) {
	f := func(seed int64, nodesRaw, tasksRaw uint8) bool {
		return coordinatorFuzzDriver(seed, nodesRaw, tasksRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzConsensus is the native-fuzzing entry over the same driver, so
// `go test -fuzz=FuzzConsensus` can explore coordinator schedules beyond
// the quick.Check sample.
func FuzzConsensus(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0))
	f.Add(int64(42), uint8(1), uint8(2))
	f.Add(int64(-7), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nodesRaw, tasksRaw uint8) {
		if !coordinatorFuzzDriver(seed, nodesRaw, tasksRaw) {
			t.Fatalf("coordinator invariant violated: seed=%d nodes=%d tasks=%d",
				seed, int(nodesRaw)%3+1, int(tasksRaw)%3+1)
		}
	})
}

// coordinatorFuzzDriver runs one randomized coordinator schedule and
// reports whether every protocol invariant held.
func coordinatorFuzzDriver(seed int64, nodesRaw, tasksRaw uint8) bool {
	nodes := int(nodesRaw)%3 + 1
	tasks := int(tasksRaw)%3 + 1
	rng := rand.New(rand.NewSource(seed))
	c := New(nodes, tasks)

	total := 2 * nodes * tasks
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Emulated tasks: report 0,1,2,... until stopped; block when the
	// gate says so.
	_ = rng
	for rep := 0; rep < 2; rep++ {
		for n := 0; n < nodes; n++ {
			for tk := 0; tk < tasks; tk++ {
				addr := runtime.Addr{Replica: rep, Node: n, Task: tk}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for iter := 0; ; iter++ {
						ch := c.Report(addr, iter)
						if ch != nil {
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
		}
	}

	ok := true
	for round := 0; round < 3 && ok; round++ {
		before := c.MaxProgress(BothReplicas)
		ready, err := c.Request(BothReplicas)
		if err != nil {
			ok = false
			break
		}
		// Invariant 1: must terminate — both replicas handed, at one target.
		h0, h1 := <-ready, <-ready
		target := h0.Target
		if h0.Replica == h1.Replica || h1.Target != target {
			ok = false
		}
		if target < before {
			ok = false // invariant 2
		}
		// Invariant 3: every participant parked, and parked exactly at
		// target (its last report — a parked task reports nothing further).
		c.mu.Lock()
		for i, ch := range c.parked {
			if ch == nil || int(c.last[i].Load()) != target {
				ok = false
			}
		}
		c.mu.Unlock()
		if c.ParkedCount() != total {
			ok = false
		}
		c.Release()
	}
	close(stop)
	c.Release() // idempotent; frees any stragglers
	wg.Wait()
	return ok
}

// TestCoordinatorTargetMonotone: across consecutive rounds the decided
// target never regresses (progress only moves forward).
func TestCoordinatorTargetMonotone(t *testing.T) {
	c := New(1, 2)
	addrs := []runtime.Addr{
		{Replica: 0, Node: 0, Task: 0},
		{Replica: 0, Node: 0, Task: 1},
		{Replica: 1, Node: 0, Task: 0},
		{Replica: 1, Node: 0, Task: 1},
	}
	iter := make([]int, len(addrs)) // per task, by position in addrs
	last := -1
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		// Random quiescent progress before the request.
		for k, a := range addrs {
			steps := rng.Intn(4)
			for s := 0; s < steps; s++ {
				if ch := c.Report(a, iter[k]); ch != nil {
					t.Fatal("idle report must not park")
				}
				iter[k]++
			}
		}
		ready, err := c.Request(BothReplicas)
		if err != nil {
			t.Fatal(err)
		}
		// Drive every task to the cut synchronously, respecting the gate
		// contract: a parked task reports nothing further.
		parked := make([]bool, len(addrs))
		handed := 0
		for {
			select {
			case h := <-ready:
				if h.Target < last {
					t.Fatalf("target regressed: %d after %d", h.Target, last)
				}
				if handed++; handed == 2 {
					if h.Target != last {
						t.Fatalf("replicas handed at %d and %d", last, h.Target)
					}
					c.Release()
					goto next
				}
				last = h.Target
				continue
			default:
			}
			for k, a := range addrs {
				if parked[k] {
					continue
				}
				if ch := c.Report(a, iter[k]); ch != nil {
					parked[k] = true
					continue
				}
				iter[k]++
			}
		}
	next:
		// After release, parked tasks resume from their parked iteration.
		for k := range addrs {
			iter[k]++
		}
	}
}
