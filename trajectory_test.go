package acr

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// trajectoryRow is one line of BENCH_TRAJECTORY.jsonl: one end-to-end
// metric of one scripts/bench_pair.sh pass.
type trajectoryRow struct {
	Date     string    `json:"date"`
	Parent   string    `json:"parent"`
	Change   string    `json:"change"`
	Dirty    *bool     `json:"dirty"`
	Workload string    `json:"workload"`
	Pairs    int       `json:"pairs"`
	Seconds  int       `json:"seconds"`
	CPUs     int       `json:"cpus"`
	Metric   string    `json:"metric"`
	Better   string    `json:"better"`
	Bound    *float64  `json:"bound"`
	ParentQ  []float64 `json:"parent_q"`
	ChangeQ  []float64 `json:"change_q"`
	Wins     *int      `json:"wins"`
	Verdict  string    `json:"verdict"`
}

// TestBenchTrajectorySchema checks the checked-in record of paired bench
// runs: every row parses with no unknown field, names full commit ids, a
// workload and an end-to-end metric (with its direction and bound) that
// BENCHMARK.json declares, ascending quartiles for both sides, wins within
// the pairs, and a verdict the rule could have given.
func TestBenchTrajectorySchema(t *testing.T) {
	type metric struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var contract struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &contract); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range contract.Workloads {
		workloads[w.Name] = true
	}
	metrics := map[string]metric{}
	for _, m := range contract.EndToEnd {
		metrics[m.Name] = m
	}

	blob, err = os.ReadFile("BENCH_TRAJECTORY.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	sha := regexp.MustCompile(`^[0-9a-f]{40}$`)
	sc := bufio.NewScanner(bytes.NewReader(blob))
	rows := 0
	for line := 1; sc.Scan(); line++ {
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		var r trajectoryRow
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d: %v", line, err)
		}
		rows++
		bad := func(format string, args ...any) {
			t.Helper()
			t.Errorf("line %d: "+format, append([]any{line}, args...)...)
		}
		if _, err := time.Parse(time.RFC3339, r.Date); err != nil {
			bad("date %q: %v", r.Date, err)
		}
		if !sha.MatchString(r.Parent) || !sha.MatchString(r.Change) {
			bad("parent %q / change %q are not full commit ids", r.Parent, r.Change)
		}
		if r.Dirty == nil {
			bad("no dirty flag")
		}
		if !workloads[r.Workload] {
			bad("workload %q is not in BENCHMARK.json", r.Workload)
		}
		m, ok := metrics[r.Metric]
		switch {
		case !ok:
			bad("metric %q is not an end-to-end metric of BENCHMARK.json", r.Metric)
		case r.Better != m.Better || r.Bound == nil || *r.Bound != m.Bound:
			bad("metric %q: better %q bound %v, BENCHMARK.json says %s %v", r.Metric, r.Better, r.Bound, m.Better, m.Bound)
		}
		if r.Pairs < 1 || r.Seconds < 1 || r.CPUs < 1 {
			bad("pairs %d, seconds %d, cpus %d: each must be positive", r.Pairs, r.Seconds, r.CPUs)
		}
		for side, q := range map[string][]float64{"parent": r.ParentQ, "change": r.ChangeQ} {
			if len(q) != 3 || q[0] > q[1] || q[1] > q[2] {
				bad("%s quartiles %v: want ascending q1, median, q3", side, q)
			}
		}
		wins := -1
		if r.Wins != nil {
			wins = *r.Wins
		}
		if wins < 0 || wins > r.Pairs {
			bad("wins %d (-1: none) outside 0..%d", wins, r.Pairs)
		}
		switch r.Verdict {
		case "gain":
			if r.Pairs < 10 || 10*wins < 9*r.Pairs {
				bad("verdict gain on %d/%d wins: the rule needs 9/10 of at least 10 pairs", wins, r.Pairs)
			}
		case "none", "regression":
		default:
			bad("verdict %q: want gain, none or regression", r.Verdict)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows == 0 {
		t.Fatal("BENCH_TRAJECTORY.jsonl holds no row")
	}
}
