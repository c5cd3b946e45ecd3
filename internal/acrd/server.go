// Package acrd is the checkpoint/restart control plane as a long-running
// service: a daemon owning one fleet.Scheduler, accepting jobs over an
// HTTP/JSON API, journaling every control-plane decision durably, and
// exposing the protocol's accounting as scrapeable metrics.
//
// The daemon applies ACR's own medicine to itself. Every job it runs
// flushes checkpoints to a per-job on-disk tier, and every submission and
// final result is fsynced into a JSONL journal before it is acknowledged.
// When the daemon process itself is the failed component — kill -9, OOM,
// node crash — a restarted daemon with --resume replays the journal for
// the jobs and their outcomes, audits each unfinished job's checkpoint
// directory for what actually survived, and re-admits it warm from its
// newest usable durable epoch (core.Config.ResumeEpochs). The job picks up
// mid-computation and still finishes bit-identical to the golden serial
// reference.
//
// Layout: server.go (state + lifecycle), journal.go (durable record log),
// resume.go (disk audit + readmission), handlers.go (HTTP API),
// metrics.go (Prometheus exposition).
package acrd

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"acr/internal/buildinfo"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/fleet"
)

// Config shapes one daemon instance.
type Config struct {
	// DataDir roots the daemon's durable state: the control-plane journal
	// (DataDir/journal.jsonl) and one checkpoint directory per job
	// (DataDir/jobs/<id>). Required.
	DataDir string
	// Fleet configures the scheduler's shared pools (see fleet.Config).
	Fleet fleet.Config
	// Resume replays an existing journal and readmits unfinished jobs. A
	// non-empty journal with Resume false is refused — silently starting
	// fresh over prior state would orphan resumable work.
	Resume bool
	// OpTimeout bounds on-demand flush/restore operations; <= 0 selects 30s.
	OpTimeout time.Duration
	// AuthToken, when non-empty, is required on every mutating API route
	// (job submit, on-demand flush, on-demand restore) as either
	// "Authorization: Bearer <token>" or "X-ACRD-Token: <token>". Read
	// routes stay open: scraping metrics and watching progress must not
	// need write credentials.
	AuthToken string
	// Remote configures the per-job remote object-store flush tier.
	Remote RemoteConfig
}

// RemoteConfig shapes the daemon's remote checkpoint tier: each job whose
// spec (or the daemon default) sets a remote cadence gets its own simulated
// object store wrapped in the ckptstore.Resilient retry/breaker layer. The
// resilient fallback is the job's own disk tier, so a dark or flapping
// remote degrades uploads to local durability instead of losing them.
type RemoteConfig struct {
	// Enabled turns the tier on; without it remote cadences in job specs
	// are rejected so callers are not silently ignored.
	Enabled bool
	// Every is the default flush cadence (committed epochs per upload) for
	// jobs that do not set remote_every themselves; <= 0 selects 4.
	Every int
	// Latency and PerKB shape the simulated store's transfer time.
	Latency time.Duration
	PerKB   time.Duration
	// FaultRate is the per-op transient failure probability (split between
	// timeouts and throttling); Seed feeds the store's fault schedule,
	// offset per job id so jobs see independent schedules.
	FaultRate float64
	Seed      int64
}

// SubmitRequest is the external job spec — the POST /api/v1/jobs body and
// the journaled submit payload. Schemes and comparisons are names and the
// interval is milliseconds, matching the acrfleet file-spec idiom.
type SubmitRequest struct {
	Name       string  `json:"name"`
	Priority   int     `json:"priority"`
	Nodes      int     `json:"nodes"`
	Tasks      int     `json:"tasks"`
	Spares     int     `json:"spares"`
	Iters      int     `json:"iters"`
	Scheme     string  `json:"scheme"`
	Comparison string  `json:"comparison"`
	IntervalMs float64 `json:"interval_ms"`
	// FlushEvery is the durable-flush cadence; <= 0 selects 1. Daemon jobs
	// always flush — durability is what makes them resumable.
	FlushEvery int `json:"flush_every"`
	// FlushRetain bounds retained durable epochs; <= 0 selects the core
	// default.
	FlushRetain int `json:"flush_retain"`
	// RemoteEvery is the remote-tier upload cadence in committed epochs.
	// Zero inherits the daemon's default cadence when the remote tier is
	// enabled; negative disables the remote tier for this job even then.
	RemoteEvery int `json:"remote_every,omitempty"`
	// RemoteRetain bounds retained remote epochs; <= 0 selects the core
	// default.
	RemoteRetain int `json:"remote_retain,omitempty"`
}

// validate normalizes the request and rejects what the fleet would choke
// on, so API callers get a 400 instead of a failed job.
func (r *SubmitRequest) validate() error {
	if r.Nodes <= 0 {
		return fmt.Errorf("nodes must be positive, got %d", r.Nodes)
	}
	if r.Tasks < 0 || r.Spares < 0 || r.Iters < 0 {
		return fmt.Errorf("tasks, spares, and iters must be non-negative")
	}
	switch r.Scheme {
	case "", "strong", "medium", "weak":
	default:
		return fmt.Errorf("unknown scheme %q", r.Scheme)
	}
	switch r.Comparison {
	case "", "full", "checksum":
	default:
		return fmt.Errorf("unknown comparison %q", r.Comparison)
	}
	if r.FlushEvery <= 0 {
		r.FlushEvery = 1
	}
	return nil
}

// toJobSpec lowers the external request to a fleet spec. The durable and
// remote stores and resume epochs are wired by launch, not here.
func (r SubmitRequest) toJobSpec() fleet.JobSpec {
	js := fleet.JobSpec{
		Name:         r.Name,
		Priority:     r.Priority,
		Nodes:        r.Nodes,
		Tasks:        r.Tasks,
		Spares:       r.Spares,
		Iters:        r.Iters,
		Interval:     time.Duration(r.IntervalMs * float64(time.Millisecond)),
		FlushEvery:   r.FlushEvery,
		FlushRetain:  r.FlushRetain,
		RemoteRetain: r.RemoteRetain,
	}
	switch r.Scheme {
	case "medium":
		js.Scheme = core.Medium
	case "weak":
		js.Scheme = core.Weak
	default:
		js.Scheme = core.Strong
	}
	if r.Comparison == "checksum" {
		js.Comparison = core.ChecksumCompare
	} else {
		js.Comparison = core.FullCompare
	}
	return js
}

// jobRecord is the daemon's view of one job across process lives.
type jobRecord struct {
	id   int
	req  SubmitRequest
	dir  string // durable checkpoint directory
	want int    // task checkpoints per complete durable epoch: nodes × tasks (one copy per compared pair)

	// job is the live fleet handle; nil for jobs that finished in a prior
	// daemon life (then prior holds the journaled result).
	job   *fleet.Job
	prior *fleet.JobResult
	// remote is this life's resilient remote-tier handle; closed (stopping
	// its health prober) when the job settles.
	remote *ckptstore.Resilient

	// Resume accounting for this life (empty for fresh submissions).
	resumed  bool
	salvaged []uint64
	skipped  []uint64
}

// Server is the daemon: scheduler + journal + job registry.
type Server struct {
	cfg   Config
	info  buildinfo.Info
	sched *fleet.Scheduler
	jour  *journal
	start time.Time

	// newRemote builds a job's remote backend; tests substitute a handle
	// they can darken and heal on cue.
	newRemote func(id int) *ckptstore.Remote

	mu     sync.Mutex
	closed bool
	jobs   map[int]*jobRecord
	order  []int
	nextID int

	report ResumeReport

	watchers sync.WaitGroup
}

// New builds a daemon over DataDir. With cfg.Resume it replays the journal
// and readmits unfinished jobs; without it, it refuses a non-empty journal.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("acrd: DataDir is required")
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("acrd: data dir: %w", err)
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 30 * time.Second
	}
	if cfg.Remote.Enabled && cfg.Remote.Every <= 0 {
		cfg.Remote.Every = 4
	}
	jpath := filepath.Join(cfg.DataDir, "journal.jsonl")
	recs, torn, err := readJournal(jpath)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 && !cfg.Resume {
		return nil, fmt.Errorf("acrd: %s holds %d journal records from a previous run; restart with resume enabled or point at a fresh data dir", cfg.DataDir, len(recs))
	}

	sched, err := fleet.New(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		info:  buildinfo.Get("acrd"),
		sched: sched,
		start: time.Now(),
		jobs:  make(map[int]*jobRecord),
	}
	s.newRemote = func(id int) *ckptstore.Remote {
		rc := s.cfg.Remote
		return ckptstore.NewRemote(ckptstore.RemoteOptions{
			Latency:      rc.Latency,
			PerKB:        rc.PerKB,
			TimeoutRate:  rc.FaultRate / 2,
			ThrottleRate: rc.FaultRate / 2,
			Seed:         rc.Seed + int64(id),
		})
	}

	if cfg.Resume {
		// Replay and audit BEFORE the journal reopens for appends, then
		// rewrite it compacted: one submit per job plus its final result,
		// if any. A torn tail line vanishes, so this life's appends never
		// glue onto it.
		if err := s.replay(recs, torn); err != nil {
			sched.Close()
			return nil, err
		}
		if err := rewriteJournal(jpath, s.compactedRecords()); err != nil {
			sched.Close()
			return nil, err
		}
	}
	jour, err := openJournal(jpath)
	if err != nil {
		sched.Close()
		return nil, err
	}
	s.jour = jour
	if cfg.Resume {
		if err := s.readmit(); err != nil {
			jour.Close()
			sched.Close()
			return nil, err
		}
	}
	return s, nil
}

// Close shuts the daemon down: the scheduler settles unfinished jobs with
// fleet.ErrClosed (deliberately not journaled as done — see watch), then
// the journal closes. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.sched.Close()
	s.watchers.Wait()
	s.jour.Close()
}

// ResumeReport returns the audit of the last resume (zero value when the
// daemon started fresh).
func (s *Server) ResumeReport() ResumeReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// Submit accepts a fresh job: assign an id, journal the submission, then
// launch it. The journal append happens before the scheduler sees the job,
// so a job the API acknowledged is always in the journal.
func (s *Server) Submit(req SubmitRequest) (int, error) {
	if err := req.validate(); err != nil {
		return 0, err
	}
	if req.RemoteEvery > 0 && !s.cfg.Remote.Enabled {
		return 0, fmt.Errorf("job requests remote_every %d but the daemon's remote tier is disabled (start acrd with -remote)", req.RemoteEvery)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, fleet.ErrClosed
	}
	id := s.nextID
	s.nextID++
	rec := &jobRecord{
		id:   id,
		req:  req,
		dir:  s.jobDir(id),
		want: req.Nodes * max(1, req.Tasks),
	}
	if rec.req.Name == "" {
		rec.req.Name = fmt.Sprintf("job-%03d", id)
	}
	s.jobs[id] = rec
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.jour.append(record{Kind: recSubmit, ID: id, Spec: &rec.req}); err != nil {
		s.dropRecord(id)
		return 0, err
	}
	if err := s.launch(rec, nil); err != nil {
		// Compensate the journaled submit so a later resume does not
		// readmit a job the caller was told failed.
		_ = s.jour.append(record{Kind: recDone, ID: id,
			Result: &fleet.JobResult{Name: rec.req.Name, Err: err.Error()}})
		s.dropRecord(id)
		return 0, err
	}
	return id, nil
}

// dropRecord removes a registry entry whose submit never took effect.
func (s *Server) dropRecord(id int) {
	s.mu.Lock()
	delete(s.jobs, id)
	for i, v := range s.order {
		if v == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

func (s *Server) jobDir(id int) string {
	return filepath.Join(s.cfg.DataDir, "jobs", fmt.Sprintf("%04d", id))
}

// remoteEvery resolves a job's effective remote cadence: the spec's own
// when positive, the daemon default when the tier is enabled and the spec
// is silent, zero (tier off) when the spec is negative or the daemon's
// remote is disabled.
func (s *Server) remoteEvery(req SubmitRequest) int {
	switch {
	case !s.cfg.Remote.Enabled || req.RemoteEvery < 0:
		return 0
	case req.RemoteEvery > 0:
		return req.RemoteEvery
	default:
		return s.cfg.Remote.Every
	}
}

// launch opens the job's durable tier, wires (when configured) the
// resilient remote tier, and submits to the fleet. resumeEpochs, when
// non-nil, warm-starts the job from the newest usable of those epochs.
func (s *Server) launch(rec *jobRecord, resumeEpochs []uint64) error {
	disk, err := ckptstore.NewDisk(rec.dir, nil)
	if err != nil {
		return fmt.Errorf("acrd: job %d durable tier: %w", rec.id, err)
	}
	js := rec.req.toJobSpec()
	js.FlushStore = disk
	js.ResumeEpochs = resumeEpochs
	if every := s.remoteEvery(rec.req); every > 0 {
		// The resilient fallback is the job's own disk tier: when the
		// breaker opens, uploads degrade to local durability, so a dark
		// remote costs redundancy depth, never checkpoints. The fleet's
		// remote bandwidth arbiter wraps this store at admission.
		resil := ckptstore.NewResilient(s.newRemote(rec.id), ckptstore.ResilientOptions{
			Fallback: disk,
		})
		js.RemoteEvery = every
		js.RemoteStore = resil
		s.mu.Lock()
		rec.remote = resil
		s.mu.Unlock()
	}
	job, err := s.sched.Submit(js)
	if err != nil {
		s.mu.Lock()
		remote := rec.remote
		rec.remote = nil
		s.mu.Unlock()
		if remote != nil {
			remote.Close()
		}
		return err
	}
	s.mu.Lock()
	rec.job = job
	s.mu.Unlock()
	s.watchers.Add(1)
	go s.watch(rec, job)
	return nil
}

// watch journals the job's final result. Jobs settled by scheduler Close
// (fleet.ErrClosed) are NOT journaled done: a graceful shutdown leaves
// them unfinished on purpose, so the next life's resume readmits them.
func (s *Server) watch(rec *jobRecord, job *fleet.Job) {
	defer s.watchers.Done()
	res := job.Wait()
	s.mu.Lock()
	remote := rec.remote
	s.mu.Unlock()
	if remote != nil {
		// The job has settled; stop the remote tier's health prober.
		remote.Close()
	}
	if !res.Completed && res.Err == fleet.ErrClosed.Error() {
		return
	}
	_ = s.jour.append(record{Kind: recDone, ID: rec.id, Result: &res})
}

// JobStatus is the API view of one job.
type JobStatus struct {
	ID    int           `json:"id"`
	Name  string        `json:"name"`
	State string        `json:"state"` // queued | running | completed | failed
	Spec  SubmitRequest `json:"spec"`
	// PriorLife marks a job that finished in a previous daemon process;
	// its result comes from the journal and its machine no longer exists.
	PriorLife bool             `json:"prior_life,omitempty"`
	Resumed   bool             `json:"resumed,omitempty"`
	Salvaged  []uint64         `json:"salvaged_epochs,omitempty"`
	Skipped   []uint64         `json:"skipped_epochs,omitempty"`
	Progress  *core.Progress   `json:"progress,omitempty"`
	Result    *fleet.JobResult `json:"result,omitempty"`
}

// lookup returns the registry entry for id.
func (s *Server) lookup(id int) (*jobRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.jobs[id]
	return rec, ok
}

// status assembles the API view of one record.
func (s *Server) status(rec *jobRecord) JobStatus {
	s.mu.Lock()
	job, prior := rec.job, rec.prior
	st := JobStatus{
		ID:       rec.id,
		Name:     rec.req.Name,
		Spec:     rec.req,
		Resumed:  rec.resumed,
		Salvaged: rec.salvaged,
		Skipped:  rec.skipped,
	}
	s.mu.Unlock()
	switch {
	case job == nil && prior != nil:
		st.PriorLife = true
		st.Result = prior
		if prior.Completed {
			st.State = "completed"
		} else {
			st.State = "failed"
		}
	case job == nil:
		st.State = "queued" // launch in flight
	default:
		if res, ok := job.Result(); ok {
			st.Result = &res
			if res.Completed {
				st.State = "completed"
			} else {
				st.State = "failed"
			}
			// The progress atomics outlive Run; keep serving them so the
			// metrics series stays continuous across settlement.
			if ctrl := job.Controller(); ctrl != nil {
				p := ctrl.Progress()
				st.Progress = &p
			}
		} else if ctrl := job.Controller(); ctrl != nil {
			st.State = "running"
			p := ctrl.Progress()
			st.Progress = &p
		} else {
			st.State = "queued"
		}
	}
	return st
}

// Statuses lists every job in submission order.
func (s *Server) Statuses() []JobStatus {
	s.mu.Lock()
	ids := append([]int(nil), s.order...)
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if rec, ok := s.lookup(id); ok {
			out = append(out, s.status(rec))
		}
	}
	return out
}
