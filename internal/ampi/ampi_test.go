package ampi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"acr/internal/pup"
	"acr/internal/runtime"
)

// harness runs fn on every rank of both replicas and returns per-rank
// results of replica 0.
func harness(t *testing.T, nodes, tasksPer int, fn func(r *Rank) (float64, error)) []float64 {
	t.Helper()
	var mu sync.Mutex
	results := make([]float64, nodes*tasksPer)
	factory := func(addr runtime.Addr) runtime.Program {
		return prog{fn: func(ctx *runtime.Ctx) error {
			r := New(ctx)
			v, err := fn(r)
			if err != nil {
				return err
			}
			if addr.Replica == 0 {
				mu.Lock()
				results[r.Rank()] = v
				mu.Unlock()
			}
			return nil
		}}
	}
	m, err := runtime.NewMachine(runtime.Config{
		NodesPerReplica: nodes,
		TasksPerNode:    tasksPer,
		Factory:         factory,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	m.Start()
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	out := make([]float64, len(results))
	copy(out, results)
	return out
}

type prog struct {
	fn func(*runtime.Ctx) error
}

func (p prog) Pup(*pup.PUPer)             {}
func (p prog) Run(ctx *runtime.Ctx) error { return p.fn(ctx) }

func TestRankAndSize(t *testing.T) {
	res := harness(t, 2, 3, func(r *Rank) (float64, error) {
		if r.Size() != 6 {
			return 0, fmt.Errorf("size = %d", r.Size())
		}
		return float64(r.Rank()), nil
	})
	for i, v := range res {
		if v != float64(i) {
			t.Fatalf("rank %d reported %v", i, v)
		}
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	// Rank 0 sends tagged values to each other rank; each receives only
	// its own tag.
	res := harness(t, 2, 2, func(r *Rank) (float64, error) {
		if r.Rank() == 0 {
			for dst := 1; dst < r.Size(); dst++ {
				if err := r.Send(dst, dst, float64(dst*10)); err != nil {
					return 0, err
				}
			}
			return 0, nil
		}
		v, from, err := r.Recv(0, r.Rank())
		if err != nil {
			return 0, err
		}
		if from != 0 {
			return 0, fmt.Errorf("from = %d", from)
		}
		return v.(float64), nil
	})
	for i := 1; i < 4; i++ {
		if res[i] != float64(i*10) {
			t.Fatalf("rank %d got %v", i, res[i])
		}
	}
}

func TestRecvAnySourceAnyTag(t *testing.T) {
	res := harness(t, 2, 1, func(r *Rank) (float64, error) {
		other := 1 - r.Rank()
		if err := r.Send(other, 7, float64(r.Rank()+1)); err != nil {
			return 0, err
		}
		v, from, err := r.Recv(AnySource, AnyTag)
		if err != nil {
			return 0, err
		}
		if from != other {
			return 0, fmt.Errorf("from = %d, want %d", from, other)
		}
		return v.(float64), nil
	})
	if res[0] != 2 || res[1] != 1 {
		t.Fatalf("res = %v", res)
	}
}

func TestOutOfOrderMatching(t *testing.T) {
	// Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first: the
	// tag-2 message must be buffered and delivered later.
	res := harness(t, 2, 1, func(r *Rank) (float64, error) {
		if r.Rank() == 0 {
			if err := r.Send(1, 2, 200.0); err != nil {
				return 0, err
			}
			if err := r.Send(1, 1, 100.0); err != nil {
				return 0, err
			}
			return 0, nil
		}
		first, _, err := r.Recv(0, 1)
		if err != nil {
			return 0, err
		}
		second, _, err := r.Recv(0, 2)
		if err != nil {
			return 0, err
		}
		return first.(float64)*1000 + second.(float64), nil
	})
	if res[1] != 100*1000+200 {
		t.Fatalf("ordered delivery broken: %v", res[1])
	}
}

func TestSendRecvExchange(t *testing.T) {
	// Classic halo swap between neighbours in a ring.
	res := harness(t, 2, 2, func(r *Rank) (float64, error) {
		n := r.Size()
		right := (r.Rank() + 1) % n
		left := (r.Rank() - 1 + n) % n
		// Send before Recv on every rank: mailboxes are buffered, so the
		// symmetric pattern cannot deadlock.
		if err := r.Send(right, 3, float64(r.Rank())); err != nil {
			return 0, err
		}
		got, _, err := r.Recv(left, 3)
		if err != nil {
			return 0, err
		}
		return got.(float64), nil
	})
	for i := range res {
		want := float64((i - 1 + 4) % 4)
		if res[i] != want {
			t.Fatalf("rank %d got %v, want %v", i, res[i], want)
		}
	}
}

func TestAllreduce(t *testing.T) {
	for _, tc := range []struct {
		op   Op
		want float64
	}{
		{Sum, 0 + 1 + 2 + 3},
	} {
		res := harness(t, 2, 2, func(r *Rank) (float64, error) {
			return r.Allreduce(tc.op, float64(r.Rank()))
		})
		for i, v := range res {
			if v != tc.want {
				t.Fatalf("%v: rank %d got %v, want %v", tc.op, i, v, tc.want)
			}
		}
	}
}

func TestSingleRankCollectives(t *testing.T) {
	res := harness(t, 1, 1, func(r *Rank) (float64, error) {
		v, err := r.Allreduce(Sum, 42)
		if err != nil || v != 42 {
			return 0, fmt.Errorf("allreduce = %v, %v", v, err)
		}
		return 1, nil
	})
	if res[0] != 1 {
		t.Fatal("single-rank collectives failed")
	}
}

func TestRepeatedCollectivesDoNotCross(t *testing.T) {
	// Back-to-back allreduces with rank-dependent values: sequence
	// numbering must keep rounds separate.
	res := harness(t, 2, 2, func(r *Rank) (float64, error) {
		total := 0.0
		for round := 1; round <= 20; round++ {
			v, err := r.Allreduce(Sum, float64(round*(r.Rank()+1)))
			if err != nil {
				return 0, err
			}
			total += v
		}
		return total, nil
	})
	// Each round: sum over ranks of round*(rank+1) = round*10.
	want := 0.0
	for round := 1; round <= 20; round++ {
		want += float64(round * 10)
	}
	for i, v := range res {
		if math.Abs(v-want) > 1e-9 {
			t.Fatalf("rank %d total %v, want %v", i, v, want)
		}
	}
}

func TestSendValidation(t *testing.T) {
	res := harness(t, 1, 2, func(r *Rank) (float64, error) {
		if err := r.Send(0, maxUserTag, 0.0); err == nil {
			return 0, fmt.Errorf("oversized tag accepted")
		}
		if err := r.Send(99, 0, 0.0); err == nil {
			return 0, fmt.Errorf("bad rank accepted")
		}
		if err := r.Send(0, -1, 0.0); err == nil {
			return 0, fmt.Errorf("negative tag accepted")
		}
		return 1, nil
	})
	if res[0] != 1 {
		t.Fatal("validation failed")
	}
}

func TestOpString(t *testing.T) {
	if Sum.String() != "sum" || Op(9).String() == "" {
		t.Fatal("Op.String broken")
	}
}
