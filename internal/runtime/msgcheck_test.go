package runtime

import (
	"testing"

	"acr/internal/pup"
)

func TestDefaultMessageHasher(t *testing.T) {
	cases := []any{float64(1.5), int64(-3), int(42), []float64{1, 2, 3}}
	sums := map[uint64]bool{}
	for _, v := range cases {
		h, ok := DefaultMessageHasher(v)
		if !ok {
			t.Fatalf("hashable type rejected: %T", v)
		}
		sums[h] = true
	}
	if _, ok := DefaultMessageHasher(struct{}{}); ok {
		t.Fatal("unhashable type accepted")
	}
	// Position dependence of slices.
	a, _ := DefaultMessageHasher([]float64{1, 2})
	b, _ := DefaultMessageHasher([]float64{2, 1})
	if a == b {
		t.Fatal("transposed payload not distinguished")
	}
	// Value dependence.
	c, _ := DefaultMessageHasher(float64(1))
	d, _ := DefaultMessageHasher(float64(2))
	if c == d {
		t.Fatal("different values hash equal")
	}
}

// TestMsgCheckerCleanRun: identical replicas produce identical streams.
func TestMsgCheckerCleanRun(t *testing.T) {
	mc := NewMsgChecker(nil)
	m := newTestMachine(t, Config{
		NodesPerReplica: 2,
		TasksPerNode:    2,
		Factory:         ringFactory(50),
		MsgChecker:      mc,
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if div := mc.Compare(2, 2, true); len(div) != 0 {
		t.Fatalf("clean run diverged: %+v", div)
	}
}

// corruptibleProg sends its state value each iteration; Corrupt flips the
// value that *is* communicated, Hidden flips a value that never leaves the
// task.
type corruptibleProg struct {
	Iter, Iters int
	Sent        float64 // communicated every iteration
	Hidden      float64 // never communicated
}

func (c *corruptibleProg) Pup(p *pup.PUPer) {
	p.Int(&c.Iter)
	p.Int(&c.Iters)
	p.Float64(&c.Sent)
	p.Float64(&c.Hidden)
}

func (c *corruptibleProg) Run(ctx *Ctx) error {
	n := ctx.NumTasks()
	me := ctx.GlobalTask()
	next := ctx.AddrOfGlobal((me + 1) % n)
	for c.Iter < c.Iters {
		if err := ctx.Send(next, 1, c.Sent); err != nil {
			return err
		}
		msg, err := ctx.Recv()
		if err != nil {
			return err
		}
		c.Sent += msg.Data.(float64) * 1e-6
		c.Hidden += 1
		c.Iter++
		if err := ctx.Progress(c.Iter - 1); err != nil {
			return err
		}
	}
	return nil
}

// TestMsgCheckerDetectsCommunicatedCorruption: a flip in data that flows
// into messages diverges the streams — the case where §3.3's scheme works
// and even detects *earlier* than checkpoint comparison.
func TestMsgCheckerDetectsCommunicatedCorruption(t *testing.T) {
	mc := NewMsgChecker(nil)
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    2,
		Factory: func(addr Addr) Program {
			return &corruptibleProg{Iters: 500, Sent: 1}
		},
		MsgChecker: mc,
	})
	// Corrupt the communicated value of replica 0, task 0, before launch
	// (deterministic injection point; the corruption flows into every
	// message the task sends).
	m.CorruptTask(Addr{0, 0, 0}, func(p pup.Pupable) {
		p.(*corruptibleProg).Sent = 999
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if div := mc.Compare(1, 2, true); len(div) == 0 {
		t.Fatal("communicated corruption not detected by message comparison")
	}
}

// TestMsgCheckerBlindToLocalCorruption: the §3.3 criticism, demonstrated —
// a flip in data that never leaves the task is invisible to message
// comparison, while the checkpoint-based checker catches it immediately.
func TestMsgCheckerBlindToLocalCorruption(t *testing.T) {
	mc := NewMsgChecker(nil)
	m := newTestMachine(t, Config{
		NodesPerReplica: 1,
		TasksPerNode:    2,
		Factory: func(addr Addr) Program {
			return &corruptibleProg{Iters: 200, Sent: 1}
		},
		MsgChecker: mc,
	})
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	// Corrupt quiescent, non-communicated state.
	m.CorruptTask(Addr{0, 0, 0}, func(p pup.Pupable) {
		p.(*corruptibleProg).Hidden += 1000
	})
	// Message comparison sees nothing...
	if div := mc.Compare(1, 2, true); len(div) != 0 {
		t.Fatalf("message comparison falsely flagged local corruption: %+v", div)
	}
	// ...while the checkpoint-based checker catches it.
	data, err := m.PackTask(Addr{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.CheckTask(Addr{1, 0, 0}, data)
	if err != nil {
		t.Fatal(err)
	}
	if res.Match {
		t.Fatal("checkpoint comparison missed the local corruption")
	}
}

func TestMsgCheckerCountMismatch(t *testing.T) {
	mc := NewMsgChecker(nil)
	mc.observe(Addr{0, 0, 0}, 1, float64(1))
	mc.observe(Addr{0, 0, 0}, 1, float64(2))
	mc.observe(Addr{1, 0, 0}, 1, float64(1))
	// Unequal counts: divergent only when equality is required.
	if div := mc.Compare(1, 1, false); len(div) != 0 {
		t.Fatalf("length difference flagged during execution: %+v", div)
	}
	if div := mc.Compare(1, 1, true); len(div) != 1 {
		t.Fatalf("length difference not flagged at a cut: %+v", div)
	}
}

func TestMsgCheckerUnhashablePayloadsSkipped(t *testing.T) {
	mc := NewMsgChecker(nil)
	mc.observe(Addr{0, 0, 0}, 1, struct{ X int }{1})
	mc.observe(Addr{1, 0, 0}, 1, struct{ X int }{2})
	if div := mc.Compare(1, 1, true); len(div) != 0 {
		t.Fatalf("unhashable payloads must not fold: %+v", div)
	}
}
