package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"acr/internal/pup"
)

// failAfter bounds a wait that only a bug makes long; no test below is paced
// by it.
const failAfter = 30 * time.Second

// TestMailboxNoLostWakeup hammers one receiver with eight senders while a
// ninth task sends to itself: every message arrives exactly once and in its
// sender's order. A wakeup lost between the receiver's "queue empty, I am
// about to park" and its park leaves the receiver asleep on a non-empty
// queue, and the machine never completes.
func TestMailboxNoLostWakeup(t *testing.T) {
	const senders, perSender = 8, 100_000
	const recvTask, selfTask = 0, senders + 1
	errCh := make(chan error, 2)
	factory := func(addr Addr) Program {
		return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
			if addr.Replica != 0 {
				return nil
			}
			switch addr.Task {
			case recvTask:
				var next [senders + 1]int
				for got := 0; got < senders*perSender; got++ {
					msg, err := ctx.Recv()
					if err != nil {
						return err
					}
					from, seq := msg.From.Task, msg.Data.(int)
					if seq != next[from] {
						errCh <- fmt.Errorf("from task %d: message %d arrived where %d was due", from, seq, next[from])
						return nil
					}
					next[from]++
				}
				errCh <- nil
			case selfTask:
				// Its own sender: the queue is never empty when it looks,
				// so it must never park — and never finds a stale token
				// standing in for a message either.
				for i := 0; i < perSender; i++ {
					if err := ctx.Send(addr, 0, i); err != nil {
						return err
					}
					msg, err := ctx.Recv()
					if err != nil {
						return err
					}
					if msg.Data.(int) != i {
						errCh <- fmt.Errorf("self-sender received %v, sent %d", msg.Data, i)
						return nil
					}
				}
				errCh <- nil
			default:
				for i := 0; i < perSender; i++ {
					if err := ctx.Send(Addr{0, 0, recvTask}, 0, i); err != nil {
						return err
					}
					// Let the receiver catch up and park again: the window
					// under test is the one around an empty queue.
					goruntime.Gosched()
				}
			}
			return nil
		}}
	}
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    senders + 2,
		Factory:         factory,
	})
	// The senders are not flow-controlled; the bound is not an allocation,
	// so covering the worst backlog costs nothing.
	m.mailboxCap = senders * perSender
	m.Start()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(failAfter):
			t.Fatal("a receiver never finished: lost wakeup")
		}
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptMatrix: every way an incarnation can be interrupted, against
// every place the interrupt can find its task, ends the task with the right
// typed error and its goroutine exits. TestInterruptsReachBlockedTasks is the
// coarser table this one grew from.
func TestInterruptMatrix(t *testing.T) {
	// Three nodes per replica: node 2 is dead from the start (the sink the
	// Send spinner aims at, and what makes node 0 the only fold target).
	interrupts := []struct {
		name   string
		victim Addr
		setup  func(m *Machine) // before Start
		do     func(m *Machine) // once the victim is where the row wants it; nil: setup did it
		want   error
	}{
		{"kill", Addr{0, 0, 0}, nil, func(m *Machine) { m.Kill(0, 0) }, ErrKilled},
		{"kill-folded", Addr{0, 1, 0},
			// The victim's own node died earlier and was folded onto node
			// 0's physical node; it is that node's death that must reach it.
			func(m *Machine) {
				m.Kill(0, 1)
				if _, err := m.FoldOntoSurvivor(0, 1); err != nil {
					panic(err)
				}
			},
			func(m *Machine) { m.Kill(0, 0) }, ErrKilled},
		{"rollback", Addr{0, 0, 0}, nil, func(m *Machine) { m.StopReplica(0) }, ErrRollback},
		{"stop", Addr{0, 0, 0}, nil, func(m *Machine) { m.Stop() }, ErrStopped},
		{"born-dead", Addr{0, 0, 0},
			// Published onto a node that is already dead: nobody fires
			// anything afterwards, the incarnation must start interrupted.
			func(m *Machine) { m.Kill(0, 0) }, nil, ErrKilled},
	}
	// A state runs on the victim: it signals `at` when the interrupt may be
	// delivered, waits for `fired` where the row needs the interrupt to land
	// at one exact point, and returns the error that ended it.
	type stateFn func(ctx *Ctx, at chan<- struct{}, fired <-chan struct{}) error
	states := []struct {
		name string
		gate bool
		run  stateFn
	}{
		{"before-recv", false, func(ctx *Ctx, at chan<- struct{}, fired <-chan struct{}) error {
			close(at)
			<-fired // the interrupt is in before Recv looks at the queue
			_, err := ctx.Recv()
			return err
		}},
		{"between-waiting-and-park", false, func(ctx *Ctx, at chan<- struct{}, fired <-chan struct{}) error {
			// Recv's empty-queue half by hand, so the interrupt can be put
			// exactly between its two steps: announce the park under the
			// lock...
			b := &ctx.inc.mbox
			b.mu.Lock()
			early := ctx.inc.intr.Load() // born-dead: Recv would not park at all
			b.waiting = !early
			b.mu.Unlock()
			close(at)
			<-fired
			// ...and park. Whoever interrupted after the announcement owes
			// the token this waits for.
			if !early {
				<-b.wake
			}
			_, err := ctx.Recv()
			return err
		}},
		{"parked-in-recv", false, func(ctx *Ctx, at chan<- struct{}, _ <-chan struct{}) error {
			go func() {
				// Parked, or at most between announcing and parking.
				b := &ctx.inc.mbox
				for announced := false; !announced && !ctx.inc.intr.Load(); goruntime.Gosched() {
					b.mu.Lock()
					announced = b.waiting
					b.mu.Unlock()
				}
				close(at)
			}()
			_, err := ctx.Recv()
			return err
		}},
		{"parked-in-progress", true, func(ctx *Ctx, _ chan<- struct{}, _ <-chan struct{}) error {
			return ctx.Progress(0) // the gate signals `at`, then parks it forever
		}},
		{"spinning-in-send", false, func(ctx *Ctx, at chan<- struct{}, _ <-chan struct{}) error {
			for first := true; ; first = false {
				err := ctx.Send(Addr{0, 2, 0}, 1, nil)
				if first {
					close(at)
				}
				if err != nil {
					return err
				}
			}
		}},
	}
	for _, st := range states {
		for _, in := range interrupts {
			t.Run(st.name+"/"+in.name, func(t *testing.T) {
				at, fired := make(chan struct{}), make(chan struct{})
				errCh := make(chan error, 1)
				cfg := Config{NodesPerReplica: 3, TasksPerNode: 1, Factory: func(addr Addr) Program {
					return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
						if addr != in.victim {
							_, err := ctx.Recv() // bystanders: nobody sends
							return err
						}
						err := st.run(ctx, at, fired)
						errCh <- err
						return err
					}}
				}}
				if st.gate {
					cfg.Gate = signalGate{at}
					if in.do == nil {
						// Progress refuses before it reaches the gate.
						close(at)
						cfg.Gate = NopGate{}
					}
				}
				m := newTestMachine(t, cfg)
				m.Kill(0, 2)
				if in.setup != nil {
					in.setup(m)
				}
				m.Start()
				inc := m.slots[in.victim.Replica][in.victim.Node][in.victim.Task].cur.Load()
				<-at
				// StopReplica and Stop return only once the victim is gone, so
				// the interrupt is delivered from the side and recognised by
				// its latch.
				if in.do != nil {
					go in.do(m)
				}
				for !inc.intr.Load() {
					goruntime.Gosched()
				}
				close(fired)
				select {
				case err := <-errCh:
					if !errors.Is(err, in.want) {
						t.Fatalf("task saw %v, want %v", err, in.want)
					}
				case <-time.After(failAfter):
					t.Fatal("the task never observed the interrupt")
				}
				select {
				case <-inc.done:
				case <-time.After(failAfter):
					t.Fatal("the incarnation's goroutine never exited")
				}
			})
		}
	}
}

// TestMailboxBoundAndRelease: the mailbox cap is the number of queued messages at
// which Send fails — exactly — and a drained queue holds no reference to any
// payload it delivered.
func TestMailboxBoundAndRelease(t *testing.T) {
	const bound = 64
	sent := make(chan error, 1)
	drain := make(chan struct{})
	drained := make(chan int, 1)
	factory := func(addr Addr) Program {
		return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
			switch addr {
			case Addr{0, 0, 0}:
				for i := 0; ; i++ {
					if err := ctx.Send(Addr{0, 0, 1}, 0, &[1 << 10]byte{}); err != nil {
						sent <- fmt.Errorf("send %d: %w", i, err)
						return nil
					}
				}
			case Addr{0, 0, 1}:
				<-drain
				n := 0
				for ; n < bound; n++ {
					if _, err := ctx.Recv(); err != nil {
						return err
					}
				}
				drained <- n
			}
			return nil
		}}
	}
	m := newTestMachine(t, Config{NodesPerReplica: 1, TasksPerNode: 2, Factory: factory})
	m.mailboxCap = bound
	m.Start()
	select {
	case err := <-sent:
		if want := fmt.Sprintf("send %d:", bound); !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("flooding a %d-message mailbox: %v, want the overflow error at %q", bound, err, want)
		}
	case <-time.After(failAfter):
		t.Fatal("overflow never surfaced")
	}
	close(drain)
	select {
	case <-drained:
	case <-time.After(failAfter):
		t.Fatal("the receiver never drained its mailbox")
	}
	b := &m.slots[0][0][1].cur.Load().mbox
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head != 0 || len(b.q) != 0 {
		t.Fatalf("drained queue has head %d, len %d", b.head, len(b.q))
	}
	for i, msg := range b.q[:cap(b.q)] {
		if msg != (Message{}) {
			t.Fatalf("slot %d of the drained queue still holds %+v", i, msg)
		}
	}
}

// TestMailboxCompaction: a queue that is never empty still drops its dead
// prefix (and the references in the slots the live messages moved out of),
// and stays FIFO across the move.
func TestMailboxCompaction(t *testing.T) {
	var b mailbox
	b.wake = make(chan struct{}, 1)
	next := 0
	pop := func() {
		t.Helper()
		b.mu.Lock()
		msg := b.popLocked()
		b.mu.Unlock()
		if msg.Tag != next {
			t.Fatalf("popped message %d, want %d", msg.Tag, next)
		}
		next++
	}
	for i := 0; i < 10; i++ {
		b.push(Message{Tag: i, Data: &i}, 1<<20)
	}
	for i := 0; i < 5; i++ {
		pop()
	}
	if b.head != 5 || len(b.q) != 10 {
		t.Fatalf("dead prefix no longer than the live half: head %d len %d, want 5 and 10", b.head, len(b.q))
	}
	pop() // dead 6 > live 4: compacts
	if b.head != 0 || len(b.q) != 4 {
		t.Fatalf("after the dead prefix outgrew the live half: head %d len %d, want 0 and 4", b.head, len(b.q))
	}
	for i, msg := range b.q[len(b.q):cap(b.q)] {
		if msg != (Message{}) {
			t.Fatalf("slot %d past the compacted queue still holds %+v", len(b.q)+i, msg)
		}
	}
	b.push(Message{Tag: 10}, 1<<20)
	for next <= 10 {
		pop()
	}
	if b.push(Message{}, 0) {
		t.Fatal("push past the bound succeeded")
	}
}

// TestFreshMachineIsSmall pins the eager-mailbox regression: 64 started
// tasks that have exchanged nothing cost well under 64 KiB of heap. (Each
// used to allocate its mailbox cap's message slots up front: 14 MiB for these 64.)
func TestFreshMachineIsSmall(t *testing.T) {
	prog := progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
		_, err := ctx.Recv()
		return err
	}}
	cfg := Config{NodesPerReplica: 4, TasksPerNode: 8, Factory: func(Addr) Program { return prog }}
	build := func() *Machine {
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		return m
	}
	// The machine's own allocations are the same every time; what varies is
	// whether the Go runtime has goroutine descriptors and wait records to
	// reuse from the previous attempt. That noise only adds, so the smallest
	// of a few attempts is the machine's.
	least := ^uint64(0)
	for attempt := 0; attempt < 5; attempt++ {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		m := build()
		goruntime.ReadMemStats(&after)
		m.Stop()
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Fatalf("a fresh 64-task machine allocated %d bytes, want < %d", least, 64<<10)
	}
}
