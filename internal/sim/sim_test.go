package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("empty run ended at %v, want 0", got)
	}
	if len(e.queue) != 0 {
		t.Fatalf("pending = %d, want 0", len(e.queue))
	}
}

func TestEventOrder(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, tm := range []float64{3, 1, 2, 1.5} {
		tm := tm
		e.At(tm, func(*Engine) { fired = append(fired, tm) })
	}
	e.Run()
	want := []float64{1, 1.5, 2, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestFIFOAmongTies(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v not FIFO", order)
		}
	}
}

func TestAfterAccumulates(t *testing.T) {
	e := NewEngine()
	var times []float64
	var step func(*Engine)
	n := 0
	step = func(en *Engine) {
		times = append(times, en.Now())
		n++
		if n < 4 {
			en.After(2.5, step)
		}
	}
	e.After(2.5, step)
	end := e.Run()
	if end != 10 {
		t.Fatalf("end = %v, want 10", end)
	}
	want := []float64{2.5, 5, 7.5, 10}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func(*Engine) { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if ev.index >= 0 {
		t.Fatal("cancelled event still queued")
	}
	// Double cancel is a no-op.
	e.Cancel(ev)
	// Cancel nil is a no-op.
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := NewEngine()
	var fired []int
	evs := make([]*Event, 5)
	for i := 0; i < 5; i++ {
		i := i
		evs[i] = e.At(float64(i), func(*Engine) { fired = append(fired, i) })
	}
	e.Cancel(evs[2])
	e.Run()
	want := []int{0, 1, 3, 4}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	e.Horizon = 5
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(float64(i), func(*Engine) { count++ })
	}
	end := e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if end != 5 {
		t.Fatalf("end = %v, want 5", end)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(1, func(*Engine) {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func(*Engine) {})
}

// Property: events always fire in sorted time order regardless of the
// scheduling order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		k := int(n%64) + 1
		times := make([]float64, k)
		var fired []float64
		for i := 0; i < k; i++ {
			tm := rng.Float64() * 100
			times[i] = tm
			e.At(tm, func(*Engine) { fired = append(fired, tm) })
		}
		e.Run()
		sort.Float64s(times)
		if len(fired) != len(times) {
			return false
		}
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving schedule-during-run keeps the clock monotone.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		last := -1.0
		ok := true
		var spawn func(*Engine)
		n := 0
		spawn = func(en *Engine) {
			if en.Now() < last {
				ok = false
			}
			last = en.Now()
			n++
			if n < 100 {
				en.After(rng.Float64(), spawn)
			}
		}
		for i := 0; i < 5; i++ {
			e.At(rng.Float64()*10, spawn)
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		var step func(*Engine)
		n := 0
		step = func(en *Engine) {
			n++
			if n < 1000 {
				en.After(1, step)
			}
		}
		e.After(1, step)
		e.Run()
	}
}
