package stages

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// run pushes total items through Run at the given width, failing the items
// in fail, and returns the outcomes and the items in the order they ran.
func run(total, width int, fail []int) ([]Outcome, []int) {
	var mu sync.Mutex
	var ran []int
	out := make([]Outcome, total)
	for i := range out {
		out[i] = Outcome{Stage: 7, Err: fmt.Errorf("stale")} // Run must clear
	}
	Run(out, width, func(i int) error {
		mu.Lock()
		ran = append(ran, i)
		mu.Unlock()
		if slices.Contains(fail, i) {
			return fmt.Errorf("item %d", i)
		}
		return nil
	})
	return out, ran
}

// TestRunIsWidthIndependent pins the runner's contract over a width table:
// every width runs every item exactly once and yields the same outcomes and
// the same first failure, the lowest failing index.
func TestRunIsWidthIndependent(t *testing.T) {
	const total = 13
	plans := []struct {
		name string
		fail []int
		want string // FirstFailure's message ("" = nil)
	}{
		{"clean", nil, ""},
		{"one-capture-failure", []int{5}, "item 5"},
		{"lowest-index-wins", []int{11, 3, 7}, "item 3"},
		{"every-item-fails-first", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, "item 0"},
	}
	for _, pc := range plans {
		t.Run(pc.name, func(t *testing.T) {
			var ref []string
			for _, w := range []int{1, 2, 3, 8, 20} {
				out, ran := run(total, w, pc.fail)
				slices.Sort(ran)
				if want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}; !slices.Equal(ran, want) {
					t.Fatalf("width %d: ran items %v, want each of 0..%d once", w, ran, total-1)
				}
				for i, o := range out {
					if failed := slices.Contains(pc.fail, i); (o.Err != nil) != failed || o.Stage != 0 {
						t.Fatalf("width %d: item %d outcome %+v, want failed=%v at stage 0", w, i, o, failed)
					}
				}
				got := ""
				if err := FirstFailure(out); err != nil {
					got = err.Error()
				}
				if got != pc.want {
					t.Fatalf("width %d: FirstFailure = %q, want %q", w, got, pc.want)
				}
				if d := describe(out); ref == nil {
					ref = d
				} else if !slices.Equal(d, ref) {
					t.Fatalf("width %d: outcomes %v differ from width 1's %v", w, d, ref)
				}
			}
		})
	}
}

// TestFirstFailureRanksStageThenIndex pins the resolution the round body
// relies on for its three stages: the earliest failed stage outranks a
// lower index at a later stage, and within a stage the lowest index wins.
func TestFirstFailureRanksStageThenIndex(t *testing.T) {
	out := []Outcome{{Stage: 2, Err: errors.New("compare 0")}, {}, {Stage: 1, Err: errors.New("exchange 2")}, {Stage: 1, Err: errors.New("exchange 3")}}
	if got := FirstFailure(out); got == nil || got.Error() != "exchange 2" {
		t.Fatalf("FirstFailure = %v, want exchange 2", got)
	}
	if got := FirstFailure(make([]Outcome, 3)); got != nil {
		t.Fatalf("FirstFailure of clean outcomes = %v, want nil", got)
	}
}

// describe renders outcomes comparably across runs (each run makes its own
// error values).
func describe(out []Outcome) []string {
	d := make([]string, len(out))
	for i, o := range out {
		if o.Err != nil {
			d[i] = fmt.Sprintf("%d: %v", o.Stage, o.Err)
		}
	}
	return d
}

// TestRunInlineOrder pins the width-1 path: item order, on the calling
// goroutine (a failure does not stop the items after it).
func TestRunInlineOrder(t *testing.T) {
	_, ran := run(4, 1, []int{1})
	if want := []int{0, 1, 2, 3}; !slices.Equal(ran, want) {
		t.Fatalf("inline order %v, want %v", ran, want)
	}
}

// TestClock times a run's items the way the round body does: each worker
// observes its own item against one base.
func TestClock(t *testing.T) {
	var c Clock
	c.Reset()
	if c.Wall() != 0 || c.Busy() != 0 {
		t.Fatalf("reset clock reads wall %v busy %v", c.Wall(), c.Busy())
	}
	for _, w := range []int{1, 3} {
		c.Reset()
		base := time.Now()
		var sink atomic.Int64
		Run(make([]Outcome, 6), w, func(i int) error {
			began := time.Now()
			sum := 0
			for k := 0; k < 10000; k++ {
				sum += k ^ i
			}
			sink.Add(int64(sum))
			c.Observe(base, began)
			return nil
		})
		if c.Wall() <= 0 || c.Busy() <= 0 {
			t.Fatalf("width %d: clock reads wall %v busy %v after six items", w, c.Wall(), c.Busy())
		}
	}
}
