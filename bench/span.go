package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a bench-side call into a layer. All
// spans live in the benchmark: the program under test is never edited to
// emit them.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 = root
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil *tracer is the untraced pass: begin and end are no-ops, so
// call sites need no branches.
type tracer struct {
	workload string
	zero     time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, zero: time.Now()}
}

// begin opens a span under parent and returns its id (0 when untraced).
func (t *tracer) begin(parent int64, layer, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.zero).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Layer: layer, Name: name, StartNs: now})
	return id
}

// end closes the span.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.zero).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimeByLayer sums, per layer, each span's duration minus the part of
// that interval its child spans cover (children may overlap each other, so
// their union is taken, clipped to the parent).
func (t *tracer) selfTimeByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Layer] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace out: %w", err)
	}
	return nil
}
