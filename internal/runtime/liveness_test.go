package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"acr/internal/pup"
)

// TestRestartFirstSendNeverLost pins Send's start-up atomicity: Send takes no
// lock, so the only thing that keeps a freshly launched task's first message
// from falling into a neighbour that has no mailbox yet is that
// startReplicaLocked publishes every incarnation of the replica before it
// launches any. Every ring task sends in its first statement; a lost message
// leaves its receiver blocked in Recv forever.
func TestRestartFirstSendNeverLost(t *testing.T) {
	const restarts = 500
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("ring%d", n), func(t *testing.T) {
			m := newTestMachine(t, Config{NodesPerReplica: n / 2, TasksPerNode: 2, Factory: ringFactory(1)})
			fresh := make([][][]byte, n/2)
			for i := range fresh {
				fresh[i] = make([][]byte, 2)
			}
			waited := make(chan error, 1)
			m.Start()
			for i := 0; i <= restarts; i++ {
				if i > 0 {
					m.StopReplica(0)
					if err := m.RestartReplica(0, fresh); err != nil {
						t.Fatal(err)
					}
				}
				go func() { waited <- m.Wait() }()
				select {
				case err := <-waited:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(20 * time.Second):
					t.Fatalf("start %d: ring never completed — a first message was lost", i)
				}
				for g := 0; g < n; g++ {
					data, err := m.PackTask(Addr{0, g / 2, g % 2})
					if err != nil {
						t.Fatal(err)
					}
					var got ringProg
					if err := pup.Unpack(data, &got); err != nil {
						t.Fatal(err)
					}
					if want := ringSum(g, n, 1); got.Sum != want {
						t.Fatalf("start %d: task %d received %d, want %d", i, g, got.Sum, want)
					}
				}
			}
		})
	}
}

// TestInterruptsReachBlockedTasks: a kill, a rollback and a machine stop are
// each observed — with their own error — by a task blocked in Recv, parked in
// Progress, and spinning in Send. The liveness state those three read is
// published with atomics; this is the table of what they must still report.
func TestInterruptsReachBlockedTasks(t *testing.T) {
	interrupts := []struct {
		name string
		do   func(m *Machine)
		want error
	}{
		{"kill", func(m *Machine) { m.Kill(0, 0) }, ErrKilled},
		{"rollback", func(m *Machine) { m.StopReplica(0) }, ErrRollback},
		{"stop", func(m *Machine) { m.Stop() }, ErrStopped},
	}
	// Each blocker runs on r0/n0/t0, signals once it is (about to be) blocked,
	// and returns the error that ended it.
	blockers := []struct {
		name string
		gate func(blocked chan struct{}) Gate
		run  func(ctx *Ctx, blocked chan struct{}) error
	}{
		{"recv", nil, func(ctx *Ctx, blocked chan struct{}) error {
			close(blocked)
			_, err := ctx.Recv() // nobody ever sends
			return err
		}},
		{"progress", func(blocked chan struct{}) Gate { return signalGate{blocked} },
			func(ctx *Ctx, _ chan struct{}) error {
				return ctx.Progress(0) // the gate signals, then parks it forever
			}},
		{"send", nil, func(ctx *Ctx, blocked chan struct{}) error {
			// Node 1 is dead, so these messages vanish and the loop never
			// fills a mailbox: the task does nothing but Send.
			for first := true; ; first = false {
				if err := ctx.Send(Addr{0, 1, 0}, 1, nil); err != nil {
					return err
				}
				if first {
					close(blocked)
				}
			}
		}},
	}
	for _, b := range blockers {
		for _, in := range interrupts {
			t.Run(b.name+"/"+in.name, func(t *testing.T) {
				blocked := make(chan struct{})
				errCh := make(chan error, 1)
				idle := make(chan struct{})
				defer close(idle)
				cfg := Config{NodesPerReplica: 2, TasksPerNode: 1, Factory: func(addr Addr) Program {
					return progFunc{pup: func(*pup.PUPer) {}, run: func(ctx *Ctx) error {
						if addr != (Addr{0, 0, 0}) {
							<-idle
							return nil
						}
						errCh <- b.run(ctx, blocked)
						return nil
					}}
				}}
				if b.gate != nil {
					cfg.Gate = b.gate(blocked)
				}
				m := newTestMachine(t, cfg)
				m.Kill(0, 1)
				m.Start()
				<-blocked
				go in.do(m)
				select {
				case err := <-errCh:
					if !errors.Is(err, in.want) {
						t.Fatalf("task blocked in %s saw %v after %s, want %v", b.name, err, in.name, in.want)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("task blocked in %s never observed %s", b.name, in.name)
				}
			})
		}
	}
}

// signalGate parks every reporter forever, signalling the first one.
type signalGate struct{ parked chan struct{} }

func (g signalGate) Report(Addr, int) <-chan struct{} {
	close(g.parked)
	return make(chan struct{})
}

func (signalGate) Done(Addr) {}
