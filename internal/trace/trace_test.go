package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestEventsSorted(t *testing.T) {
	var tl Timeline
	tl.Add(5, Checkpoint, "")
	tl.Add(1, Failure, "")
	tl.Add(3, Restart, "")
	ev := tl.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Time != 1 || ev[1].Time != 3 || ev[2].Time != 5 {
		t.Fatalf("events not sorted: %+v", ev)
	}
}

func TestCountAndOfKind(t *testing.T) {
	var tl Timeline
	for i := 0; i < 4; i++ {
		tl.Add(float64(i), Checkpoint, "")
	}
	tl.Add(10, Failure, "node 3")
	if len(tl.OfKind(Checkpoint)) != 4 || len(tl.OfKind(Failure)) != 1 || len(tl.OfKind(Restart)) != 0 {
		t.Fatal("counts wrong")
	}
	f := tl.OfKind(Failure)
	if len(f) != 1 || f[0].Detail != "node 3" {
		t.Fatalf("OfKind = %+v", f)
	}
}

func TestRenderGlyphs(t *testing.T) {
	var tl Timeline
	tl.Add(0, Checkpoint, "")
	tl.Add(50, Failure, "")
	tl.Add(50.4, Restart, "") // same column as failure at width 100, horizon 100
	tl.Add(99, Checkpoint, "")
	row := tl.Render(100, 100)
	if len(row) != 100 {
		t.Fatalf("row length %d", len(row))
	}
	if row[0] != '|' {
		t.Fatalf("col 0 = %c, want |", row[0])
	}
	// Failure outranks restart in the shared column.
	if row[50] != 'X' {
		t.Fatalf("col 50 = %c, want X", row[50])
	}
	if row[99] != '|' {
		t.Fatalf("col 99 = %c, want |", row[99])
	}
	if !strings.Contains(row, "=") {
		t.Fatal("work glyphs missing")
	}
}

func TestRenderClampsOutOfRange(t *testing.T) {
	var tl Timeline
	tl.Add(-5, Failure, "")
	tl.Add(500, Restart, "")
	row := tl.Render(100, 10)
	if row[0] != 'X' || row[9] != 'R' {
		t.Fatalf("clamping broken: %q", row)
	}
}

func TestRenderDegenerate(t *testing.T) {
	var tl Timeline
	if tl.Render(0, 10) != "" || tl.Render(10, 0) != "" {
		t.Fatal("degenerate render should be empty")
	}
}

func TestConcurrentAdd(t *testing.T) {
	var tl Timeline
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tl.Add(float64(base*100+j), Progress, "")
			}
		}(i)
	}
	wg.Wait()
	if got := len(tl.OfKind(Progress)); got != 800 {
		t.Fatalf("count = %d, want 800", got)
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{Work: "work", Progress: "progress", Checkpoint: "checkpoint", Restart: "restart", Failure: "failure"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind should format")
	}
	if Checkpoint.Glyph() != '|' || Failure.Glyph() != 'X' || Restart.Glyph() != 'R' {
		t.Fatal("glyphs broken")
	}
}

func TestNewKindGlyphs(t *testing.T) {
	if Inject.String() != "inject" || Oracle.String() != "oracle" {
		t.Fatal("new kind names broken")
	}
	if Inject.Glyph() != '!' || Oracle.Glyph() != '?' {
		t.Fatal("new kind glyphs broken")
	}
}
