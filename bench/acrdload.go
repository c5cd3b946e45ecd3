package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"acr/internal/acrd"
	"acr/internal/fleet"
)

// The daemon's pools, as cmd/acrd defaults them.
const (
	acrdFleetNodes  = 64
	acrdFleetSpares = 4
)

const (
	// acrdClients is the closed loop's width: each client submits a job,
	// polls it to a terminal state, verifies it, and only then submits the
	// next — the callers are a campaign driver that waits for each job.
	acrdClients = 2
	// acrdPoll spaces status polls of one in-flight job.
	acrdPoll = 2 * time.Millisecond
	// acrdWarmJobs run through the full submit/poll/verify path during
	// set-up, before the clock starts.
	acrdWarmJobs = 8
	// acrdJobTimeout bounds one job's submit-to-terminal wait.
	acrdJobTimeout = 60 * time.Second
)

// jobShapes builds the n job specs of one repetition. The multiset of
// shapes is fixed — the four (nodes, tasks) machine shapes in equal
// numbers, ring iterations spread evenly over 5000-15000, every committed
// epoch flushed — and the seed only permutes the submission order, so
// every seed offers the daemon the same total work in a different order.
func jobShapes(seed int64, n int) []acrd.SubmitRequest {
	out := make([]acrd.SubmitRequest, n)
	for i := range out {
		out[i] = acrd.SubmitRequest{
			Nodes:      1 + i%2,
			Tasks:      1 + (i/2)%2,
			Iters:      5000 + (i/4)*4*10000/max(1, n-1),
			FlushEvery: 1,
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		out[i].Name = fmt.Sprintf("bench-%d-%04d", seed, i)
	}
	return out
}

// daemon is an in-process acrd behind a real HTTP listener on loopback.
type daemon struct {
	srv     *acrd.Server
	hs      *http.Server
	served  chan error
	base    string
	dataDir string
	client  *http.Client
}

func startDaemon(dataDir string) (*daemon, error) {
	srv, err := acrd.New(acrd.Config{
		DataDir: dataDir,
		Fleet:   fleet.Config{Nodes: acrdFleetNodes, Spares: acrdFleetSpares},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		dataDir: dataDir,
		// One connection per client goroutine, kept alive across requests.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: acrdClients, MaxConnsPerHost: acrdClients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, waits for the serve goroutine, and closes
// the daemon (which settles any unfinished job and closes the journal).
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.srv.Close()
	return err
}

// acrdClient issues the benchmark's HTTP requests, each under a span.
type acrdClient struct {
	d      *daemon
	tr     *tracer
	parent int64
	polls  atomic.Int64
}

// do performs one request and decodes a JSON body into out (when non-nil).
func (c *acrdClient) do(method, path string, body []byte, wantStatus int, out any) error {
	id := c.tr.begin(c.parent, "acrd", method+" "+path)
	defer c.tr.end(id)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // best-effort error detail
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// jobOutcome is one job's trip through the closed loop.
type jobOutcome struct {
	submit, complete time.Duration
	status           acrd.JobStatus
	verified         bool
	err              error
}

// runJob submits one job, polls it to a terminal state, and verifies it
// against the golden ring reference.
func (c *acrdClient) runJob(spec acrd.SubmitRequest) jobOutcome {
	var o jobOutcome
	blob, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	began := time.Now()
	var st acrd.JobStatus
	if o.err = c.do(http.MethodPost, "/api/v1/jobs", blob, http.StatusCreated, &st); o.err != nil {
		return o
	}
	o.submit = time.Since(began)
	path := fmt.Sprintf("/api/v1/jobs/%d", st.ID)
	for st.State != "completed" && st.State != "failed" {
		if time.Since(began) > acrdJobTimeout {
			o.err = fmt.Errorf("job %d still %q after %v", st.ID, st.State, acrdJobTimeout)
			return o
		}
		time.Sleep(acrdPoll)
		c.polls.Add(1)
		st = acrd.JobStatus{}
		if o.err = c.do(http.MethodGet, path, nil, http.StatusOK, &st); o.err != nil {
			return o
		}
	}
	o.complete = time.Since(began)
	o.status = st
	if st.State != "completed" {
		return o
	}
	var v struct {
		OK bool `json:"ok"`
	}
	if o.err = c.do(http.MethodGet, path+"/verify", nil, http.StatusOK, &v); o.err != nil {
		return o
	}
	o.verified = v.OK
	return o
}

// drain pushes the jobs through the closed loop and returns their outcomes
// in job order.
func (c *acrdClient) drain(specs []acrd.SubmitRequest) []jobOutcome {
	n := len(specs)
	out := make([]jobOutcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < acrdClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = c.runJob(specs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// acrdLoad is the control-plane workload: an in-process acrd behind HTTP
// on loopback, drained by a bench-owned closed-loop client.
func acrdLoad(x *runCtx) (*repResult, error) {
	res := newRepResult()
	t0 := time.Now()
	d, err := startDaemon(filepath.Join(x.dir, "acrd"))
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop() // error path only; the run's own error wins
		}
	}()
	client := &acrdClient{d: d, tr: x.tr, parent: x.root}
	for _, o := range client.drain(jobShapes(x.seed, acrdWarmJobs)) {
		if o.err != nil || !o.verified {
			return nil, fmt.Errorf("acrd-load warm-up job failed: state %q, err %v", o.status.State, o.err)
		}
	}
	client.polls.Store(0)
	specs := jobShapes(x.seed, x.sz.jobs)
	res.setup = time.Since(t0)

	id := x.tr.begin(x.root, "acrd", "drain")
	t0 = time.Now()
	outcomes := client.drain(specs)
	res.solve = time.Since(t0)
	x.tr.end(id)

	for i, o := range outcomes {
		res.attempted++
		switch {
		case o.err != nil:
			res.failed++
			res.miss("acrd-load: job %d: %v", i, o.err)
			continue
		case o.status.State != "completed" || o.status.Result == nil:
			res.failed++
			res.miss("acrd-load: job %d ended %q", i, o.status.State)
			continue
		case !o.verified:
			res.failed++
			res.miss("acrd-load: job %d failed /verify", i)
		}
		st := o.status.Result.Stats
		res.attempted += st.Checkpoints
		res.failed += st.FlushErrors + st.RemoteFlushErrors
		res.lat[latSubmit] = append(res.lat[latSubmit], o.submit)
		res.lat[latComplete] = append(res.lat[latComplete], o.complete)
		res.lat[latQueueWait] = append(res.lat[latQueueWait], o.status.Result.QueueWait)
		res.lat[latBlocked] = append(res.lat[latBlocked], st.BlockedTimes...)
		res.lat[latRound] = append(res.lat[latRound], st.CheckpointTimes...)
		res.cnt[cntBlockedS] += sumDur(st.BlockedTimes).Seconds()
		res.cnt[cntRunS] += st.Elapsed.Seconds()
		res.cnt[cntRounds] += float64(st.Checkpoints)
		res.cnt[cntFlushed] += float64(st.FlushedEpochs)
		res.cnt[cntJobs]++
	}
	res.cnt[cntPolls] = float64(client.polls.Load())

	if x.probe {
		res.probes, err = acrdProbes(x, client)
		if err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	// The journal is complete only once the daemon has closed it.
	journal, err := os.ReadFile(filepath.Join(d.dataDir, "journal.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("read journal: %w", err)
	}
	res.cnt[cntJournalRecords] = float64(bytes.Count(journal, []byte("\n")))
	res.cnt[cntJournalBytes] = float64(len(journal))
	return res, nil
}

// acrdProbes measures the daemon's own layers with every job of the
// repetition still registered: in-process submit (no HTTP), one job GET,
// a /metrics scrape, the arbiter's accumulated wait, and fleet admission.
func acrdProbes(x *runCtx, c *acrdClient) (map[string]float64, error) {
	out := make(map[string]float64)
	var errs probeErrs
	note := errs.note

	probeSpan(x, "acrd", "submit_inproc", func() {
		samples := make([]float64, probeCalls)
		ids := make([]int, probeCalls)
		for i := range samples {
			spec := acrd.SubmitRequest{Name: fmt.Sprintf("probe-%d", i), Nodes: 1, Tasks: 1, Iters: 50, FlushEvery: 1}
			t0 := time.Now()
			id, err := c.d.srv.Submit(spec)
			samples[i] = time.Since(t0).Seconds()
			note(err)
			ids[i] = id
		}
		out["acrd.submit_inproc_ms_p50"] = 1e3 * median(samples)
		// Let the probe jobs settle so the scrapes below see a quiet daemon.
		for _, id := range ids {
			var st acrd.JobStatus
			for st.State != "completed" && st.State != "failed" && errs.first == nil {
				note(c.do(http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d", id), nil, http.StatusOK, &st))
				time.Sleep(acrdPoll)
			}
		}
	})
	probeSpan(x, "acrd", "get_job", func() {
		out["acrd.get_job_us"] = 1e6 * timeCalls(probeCalls, nil, func() {
			var st acrd.JobStatus
			note(c.do(http.MethodGet, fmt.Sprintf("/api/v1/jobs/%d", acrdWarmJobs), nil, http.StatusOK, &st))
		})
	})
	probeSpan(x, "acrd", "metrics_scrape", func() {
		out["acrd.metrics_scrape_ms"] = 1e3 * timeCalls(probeCalls, nil, func() {
			note(c.do(http.MethodGet, "/metrics", nil, http.StatusOK, nil))
		})
	})
	probeSpan(x, "fleet", "arbiter_wait", func() {
		var fs fleet.FleetStats
		note(c.do(http.MethodGet, "/api/v1/fleet", nil, http.StatusOK, &fs))
		out["fleet.arbiter_wait_ms"] = ms(fs.Arbiter.WriteWait)
	})
	probeSpan(x, "fleet", "admit", func() {
		us, err := fleetAdmitProbe(x)
		note(err)
		out["fleet.admit_us"] = us
	})
	return out, errs.first
}
