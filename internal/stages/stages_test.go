package stages

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// plan lists, per stage, the items whose Run fails there.
type plan map[int][]int

// harness runs a three-stage pipeline over total items under a failure
// plan and records everything the runner's contract speaks about.
type harness struct {
	total int
	plan  plan
	errs  map[[2]int]error // (stage, item) → the error that Run returns

	mu      sync.Mutex
	entered [3][]int // items that entered each stage, in call order
	ran     [3]atomic.Int32
}

func newHarness(total int, p plan) *harness {
	h := &harness{total: total, plan: p, errs: map[[2]int]error{}}
	for s, items := range p {
		for _, i := range items {
			h.errs[[2]int{s, i}] = fmt.Errorf("stage %d item %d", s, i)
		}
	}
	return h
}

// want returns how many items enter each stage when the plan holds: an
// item enters a stage only when it passed every stage before it.
func (h *harness) want() [3]int32 {
	var n [3]int32
	for i := 0; i < h.total; i++ {
		for s := 0; s < 3; s++ {
			n[s]++
			if h.errs[[2]int{s, i}] != nil {
				break
			}
		}
	}
	return n
}

func (h *harness) run(widths [3]int) []Outcome {
	var ss []Stage
	for s := 0; s < 3; s++ {
		ss = append(ss, Stage{
			Width: widths[s],
			Run: func(i int) error {
				h.mu.Lock()
				h.entered[s] = append(h.entered[s], i)
				h.mu.Unlock()
				defer h.ran[s].Add(1)
				return h.errs[[2]int{s, i}]
			},
		})
	}
	out := make([]Outcome, h.total)
	for i := range out {
		out[i] = Outcome{Stage: 7, Err: fmt.Errorf("stale")} // Run must clear
	}
	Run(out, ss...)
	return out
}

// TestRunIsWidthIndependent pins the runner's contract over a width table:
// every width yields the same outcomes and the same first failure, an item
// that fails never enters a later stage, and the lowest stage, then the
// lowest index, wins.
func TestRunIsWidthIndependent(t *testing.T) {
	const total = 13
	plans := []struct {
		name string
		plan plan
		want string // FirstFailure's message ("" = nil)
	}{
		{"clean", plan{}, ""},
		{"one-capture-failure", plan{0: {5}}, "stage 0 item 5"},
		{"lowest-index-wins", plan{1: {11, 3, 7}}, "stage 1 item 3"},
		{"lower-stage-outranks-lower-index", plan{1: {9}, 2: {0, 1}}, "stage 1 item 9"},
		{"failed-item-skips-later-stages", plan{0: {4}, 1: {4, 6}, 2: {4}}, "stage 0 item 4"},
		{"every-item-fails-first", plan{0: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}}, "stage 0 item 0"},
		{"last-stage-only", plan{2: {12, 2}}, "stage 2 item 2"},
	}
	for _, pc := range plans {
		t.Run(pc.name, func(t *testing.T) {
			var ref []string
			for _, w := range []int{1, 2, 3, 8} {
				for _, widths := range [][3]int{{w, w, w}, {w, 1, w}, {1, w, 1}} {
					h := newHarness(total, pc.plan)
					out := h.run(widths)
					for s := 0; s < 3; s++ {
						if got, want := h.ran[s].Load(), h.want()[s]; got != want {
							t.Fatalf("widths %v: stage %d ran %d items, want %d", widths, s, got, want)
						}
						for _, i := range h.entered[s] {
							if s > 0 && out[i].Err != nil && out[i].Stage < s {
								t.Fatalf("widths %v: item %d failed stage %d yet entered stage %d", widths, i, out[i].Stage, s)
							}
						}
					}
					for i, o := range out {
						if want := h.errs[[2]int{o.Stage, i}]; o.Err != want {
							t.Fatalf("widths %v: item %d outcome %+v, want stage %d error %v", widths, i, o, o.Stage, want)
						}
					}
					got := ""
					if err := FirstFailure(out); err != nil {
						got = err.Error()
					}
					if got != pc.want {
						t.Fatalf("widths %v: FirstFailure = %q, want %q", widths, got, pc.want)
					}
					if got := describe(out); ref == nil {
						ref = got
					} else if !slices.Equal(got, ref) {
						t.Fatalf("widths %v: outcomes %v differ from width 1's %v", widths, got, ref)
					}
				}
			}
		})
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

// TestRunInlineOrder pins the width-1 path: stage by stage, each in item
// order.
func TestRunInlineOrder(t *testing.T) {
	var log []string
	var ss []Stage
	for s := 0; s < 2; s++ {
		ss = append(ss, Stage{
			Width: 1,
			Run:   func(i int) error { log = append(log, fmt.Sprintf("%d/%d", s, i)); return nil },
		})
	}
	Run(make([]Outcome, 3), ss...)
	want := []string{"0/0", "0/1", "0/2", "1/0", "1/1", "1/2"}
	if !slices.Equal(log, want) {
		t.Fatalf("inline order %v, want %v", log, want)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Reset()
	if c.Wall() != 0 || c.Busy() != 0 {
		t.Fatalf("reset clock reads wall %v busy %v", c.Wall(), c.Busy())
	}
	for _, w := range []int{1, 3} {
		c.Reset()
		Run(make([]Outcome, 6), Stage{Width: w, Clock: &c, Run: func(i int) error {
			sum := 0
			for k := 0; k < 10000; k++ {
				sum += k ^ i
			}
			_ = sum
			return nil
		}})
		if c.Wall() <= 0 || c.Busy() <= 0 {
			t.Fatalf("width %d: clock reads wall %v busy %v after six items", w, c.Wall(), c.Busy())
		}
	}
}
