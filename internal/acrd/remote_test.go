package acrd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"acr/internal/ckptstore"
	"acr/internal/fleet"
)

// TestAuthTokenGatesMutatingRoutes: with an auth token configured, every
// mutating POST route demands it (Bearer or X-ACRD-Token) and answers 401
// otherwise, while read routes stay open for scrapers.
func TestAuthTokenGatesMutatingRoutes(t *testing.T) {
	s, err := New(Config{
		DataDir:   t.TempDir(),
		Fleet:     fleet.Config{Nodes: 8},
		AuthToken: "open-sesame",
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	spec := `{"name":"auth","nodes":2,"tasks":1,"iters":2000,"flush_every":1}`
	do := func(method, path, body string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		hdr    map[string]string
		want   int
	}{
		{"submit no token", "POST", "/api/v1/jobs", spec, nil, 401},
		{"submit wrong bearer", "POST", "/api/v1/jobs", spec,
			map[string]string{"Authorization": "Bearer nope"}, 401},
		{"submit wrong header token", "POST", "/api/v1/jobs", spec,
			map[string]string{"X-ACRD-Token": "nope"}, 401},
		{"flush no token", "POST", "/api/v1/jobs/0/flush", "", nil, 401},
		{"restore no token", "POST", "/api/v1/jobs/0/restore?epoch=1", "", nil, 401},
		{"submit bearer", "POST", "/api/v1/jobs", spec,
			map[string]string{"Authorization": "Bearer open-sesame"}, 201},
		{"submit header token", "POST", "/api/v1/jobs", spec,
			map[string]string{"X-ACRD-Token": "open-sesame"}, 201},
		// Read routes need no credential.
		{"list open", "GET", "/api/v1/jobs", "", nil, 200},
		{"healthz open", "GET", "/healthz", "", nil, 200},
		{"metrics open", "GET", "/metrics", "", nil, 200},
		{"fleet open", "GET", "/api/v1/fleet", "", nil, 200},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := do(tc.method, tc.path, tc.body, tc.hdr).StatusCode; got != tc.want {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, got, tc.want)
			}
		})
	}

	// 401 responses must advertise the challenge scheme.
	resp := do("POST", "/api/v1/jobs", spec, nil)
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Fatalf("WWW-Authenticate = %q, want a Bearer challenge", got)
	}
}

// TestRemoteEveryRejectedWithoutRemoteTier: a spec asking for remote
// uploads on a daemon without the tier is a 400, not a silent ignore.
func TestRemoteEveryRejectedWithoutRemoteTier(t *testing.T) {
	s, err := New(Config{DataDir: t.TempDir(), Fleet: fleet.Config{Nodes: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(SubmitRequest{Nodes: 2, Iters: 100, RemoteEvery: 2}); err == nil {
		t.Fatal("submit with remote_every accepted by a daemon without a remote tier")
	}
}

// metricValue extracts the first sample whose series name (including any
// label block) starts with prefix.
func metricValue(t *testing.T, body, prefix string) (float64, bool) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		return v, true
	}
	return 0, false
}

// TestRemoteBreakerLifecycleInMetrics drives the full breaker arc through
// the daemon and watches it in /metrics: a job uploads to a dark remote,
// the resilient wrapper trips its breaker and fails uploads over to the
// job's local disk tier (visible as acr_remote_breaker_trips_total and
// acr_remote_failovers_total), the remote heals, background probes
// re-close the breaker (acr_remote_breaker_recloses_total), and the job
// still finishes with a clean golden ring.
func TestRemoteBreakerLifecycleInMetrics(t *testing.T) {
	s, err := New(Config{
		DataDir: t.TempDir(),
		Fleet:   fleet.Config{Nodes: 8, RemoteBytesPerSec: 256 << 20},
		Remote:  RemoteConfig{Enabled: true, Every: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Substitute the remote factory for one whose handle the test keeps:
	// born dark, healed on cue.
	var mu sync.Mutex
	var remotes []*ckptstore.Remote
	s.newRemote = func(id int) *ckptstore.Remote {
		r := ckptstore.NewRemote(ckptstore.RemoteOptions{})
		r.SetDark(true)
		mu.Lock()
		remotes = append(remotes, r)
		mu.Unlock()
		return r
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	id, err := s.Submit(SubmitRequest{
		Name: "breaker", Nodes: 2, Tasks: 1, Iters: 600_000, FlushEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := s.lookup(id)

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		resp.Body.Close()
		return body
	}
	waitFor := func(what, prefix string, min float64) string {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			body := scrape()
			if v, ok := metricValue(t, body, prefix); ok && v >= min {
				return body
			}
			if _, settled := rec.job.Result(); settled {
				t.Fatalf("job settled before %s reached %g:\n%s", what, min, body)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never reached %g:\n%s", what, min, body)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Dark remote: uploads fail, the breaker trips, and later uploads fail
	// over to the local tier.
	body := waitFor("breaker trips", `acr_remote_breaker_trips_total{`, 1)
	if v, ok := metricValue(t, body, `acr_remote_breaker_open`); !ok || v != 1 {
		t.Fatalf("breaker tripped but acr_remote_breaker_open != 1:\n%s", body)
	}
	waitFor("failovers", `acr_remote_failovers_total{`, 1)

	// Heal the backend; the wrapper's background probes must re-close.
	mu.Lock()
	if len(remotes) != 1 {
		mu.Unlock()
		t.Fatalf("expected 1 remote backend, factory built %d", len(remotes))
	}
	remotes[0].SetDark(false)
	mu.Unlock()
	body = waitFor("breaker recloses", `acr_remote_breaker_recloses_total{`, 1)
	if v, _ := metricValue(t, body, `acr_remote_breaker_open`); v != 0 {
		t.Fatalf("breaker re-closed but acr_remote_breaker_open = %g:\n%s", v, body)
	}

	select {
	case <-rec.job.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("job did not finish")
	}
	res := rec.job.Wait()
	if !res.Completed {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.Stats.RemoteFlushedEpochs == 0 {
		t.Fatalf("no epochs landed on the remote tier (or its fallback): %+v", res.Stats)
	}
	if res.Stats.Remote.Trips == 0 || res.Stats.Remote.Recloses == 0 {
		t.Fatalf("final stats missing breaker lifecycle: %+v", res.Stats.Remote)
	}
	if errs := fleet.VerifyRing(rec.job); len(errs) > 0 {
		t.Fatalf("golden violation after remote outage: %v", errs)
	}
	// The settled job's frozen stats keep the series alive in /metrics.
	body = scrape()
	if v, _ := metricValue(t, body, `acr_remote_breaker_trips_total{`); v < 1 {
		t.Fatalf("settled job lost its trip count in /metrics:\n%s", body)
	}
	// The remote tier shows up in the inventory census alongside hot and
	// durable tiers.
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/inventory", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	inv := readAll(t, resp)
	resp.Body.Close()
	var census struct {
		Tiers []struct {
			Name string `json:"name"`
		} `json:"tiers"`
	}
	if err := json.Unmarshal([]byte(inv), &census); err != nil {
		t.Fatal(err)
	}
	// Ladder order: hot store, flush tier, remote tier.
	if ts := census.Tiers; len(ts) != 3 || ts[0].Name != "mem" ||
		!strings.Contains(ts[1].Name, "disk") || !strings.Contains(ts[2].Name, "resilient(") {
		t.Fatalf("inventory tiers = %+v, want hot, flush, remote in ladder order", census.Tiers)
	}
}

// TestJournalCompactionAcrossLives: each resume rewrites the journal to
// its compacted equivalent (one submit per job plus results), dropping a
// torn tail line so this life's appends do not glue onto it — and a
// kill -9 straddling that compaction boundary must still resume cleanly
// in the next life.
func TestJournalCompactionAcrossLives(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	tear := func() {
		jf, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := jf.WriteString(`{"kind":"do`); err != nil {
			t.Fatal(err)
		}
		jf.Close()
	}

	// Life 1: run until the disk holds durable epochs, then die with the
	// job unfinished, mid-append.
	s1, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(SubmitRequest{Name: "compact", Nodes: 2, Tasks: 1, Iters: 400_000, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := s1.lookup(id)
	waitDurable(t, rec1, 2)
	s1.Close()
	tear()

	// Life 2: resume compacts the journal, then dies mid-run too — the
	// kill -9 across the compaction boundary.
	s2, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := s2.ResumeReport()
	if rep.TornRecords != 1 || rep.Readmitted != 1 || rep.CompactedRecords != 1 {
		t.Fatalf("life 2 resume report: %+v; want 1 torn, 1 readmitted, compacted to 1", rep)
	}
	rec2, _ := s2.lookup(id)
	waitDurable(t, rec2, 2)
	s2.Close()

	// The rewritten journal is the one submit record: no torn line left
	// and no spurious done record for the unfinished job.
	recs, torn, err := readJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 || len(recs) != 1 || recs[0].Kind != recSubmit {
		t.Fatalf("compacted journal: %d records %+v, %d torn; want one submit", len(recs), recs, torn)
	}
	tear()

	// Life 3: resume across the compaction boundary; the job must finish
	// warm and bit-identical to the golden ring.
	s3, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	rep3 := s3.ResumeReport()
	if rep3.TornRecords != 1 || rep3.Readmitted != 1 {
		t.Fatalf("life 3 resume report: %+v", rep3)
	}
	rec3, ok := s3.lookup(id)
	if !ok {
		t.Fatalf("job %d missing in life 3", id)
	}
	select {
	case <-rec3.job.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("job did not finish in life 3")
	}
	res := rec3.job.Wait()
	if !res.Completed {
		t.Fatalf("job failed in life 3: %s", res.Err)
	}
	if res.Stats.ResumedEpoch == 0 {
		t.Fatal("life 3 cold-started; want a warm start from a salvaged epoch")
	}
	if errs := fleet.VerifyRing(rec3.job); len(errs) > 0 {
		t.Fatalf("golden violation after double resume: %v", errs)
	}
}
