// Package fleet multiplexes many concurrent ACR jobs — each a
// core.Controller driving a runtime.Machine — over three shared, contended
// resources: a physical node pool (each job occupies 2×Nodes physical
// nodes, one per replica member), a spare pool (repaired nodes waiting for
// work), and a disk-tier bandwidth budget for durable checkpoint flushes.
//
// The scheduler provides:
//
//   - Admission control: submitted jobs queue until their node and spare
//     demand fits the free pools, served in priority order (head-of-line —
//     a large high-priority job is never overtaken by a small low-priority
//     one, so priorities cannot starve).
//   - Checkpoint-I/O arbitration: every job's tier-1 flush traffic passes
//     through one token-bucket Arbiter (see arbiter.go) plugged into
//     core.Config.FlushStore, so one job's flush storm queues against the
//     budget instead of starving another job's recovery reads.
//   - Spare brokering: when a job exhausts its dedicated spares and folds a
//     dead node onto a survivor (degraded mode), the fleet grants it a
//     spare — from the free pool if one is available, otherwise by
//     preempting an idle spare from the lowest-priority healthy job. The
//     grant lands through Controller.FreeSpare, which re-expands the folded
//     node.
//
// All brokering decisions run on one scheduler goroutine fed by channels;
// controllers never touch fleet state directly, so the fleet adds no lock
// ordering constraints to the per-job machinery.
package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"acr/internal/chaos"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/runtime"
	"acr/internal/trace"
)

// Config shapes the shared resource pools.
type Config struct {
	// Nodes is the physical node pool backing replicas. A job with N
	// logical nodes per replica occupies 2N of them for its lifetime.
	Nodes int
	// Spares is the shared spare pool. Dedicated per-job spares
	// (JobSpec.Spares) are carved out of it at admission; the remainder is
	// the brokered free pool degraded jobs draw from.
	Spares int
	// BytesPerSec is the shared disk-tier write budget for durable flushes;
	// <= 0 disables throttling (the arbiter still counts traffic).
	BytesPerSec float64
	// TransferSlots bounds concurrent disk-tier transfers; <= 0 unlimited.
	TransferSlots int
	// RemoteBytesPerSec is the shared remote-tier (object store) upload
	// budget, metered by a second arbiter so remote flush traffic queues
	// against its own budget instead of competing with local disk flushes;
	// <= 0 disables throttling (the arbiter still counts traffic).
	RemoteBytesPerSec float64
	// Timeline, if non-nil, receives fleet-level events (admissions,
	// grants, preemptions) as trace.Fleet annotations.
	Timeline *trace.Timeline
}

// JobSpec describes one job submitted to the fleet.
type JobSpec struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	// Nodes and Tasks shape the job's machine: Nodes logical nodes per
	// replica, Tasks tasks per node (2×Nodes physical nodes total).
	Nodes int `json:"nodes"`
	Tasks int `json:"tasks"`
	// Spares is the job's dedicated spare count, allocated from the fleet
	// pool at admission and returned (if unused) at completion.
	Spares int `json:"spares"`
	// Iters is the ring-workload lap count when Factory is nil.
	Iters int `json:"iters"`
	// Factory overrides the default ring workload. Jobs with a custom
	// factory are not golden-verifiable by VerifyRing.
	Factory runtime.Factory `json:"-"`

	Scheme     core.Scheme     `json:"scheme"`
	Comparison core.Comparison `json:"comparison"`
	// Interval is the checkpoint interval; <= 0 selects 2ms.
	Interval time.Duration `json:"interval"`
	// FlushEvery > 0 flushes every K-th committed epoch to a durable tier
	// routed through the fleet's bandwidth arbiter.
	FlushEvery int `json:"flush_every"`
	// FlushRetain bounds the complete durable epochs the job's flush tier
	// keeps (core.Config.FlushRetain); <= 0 selects the core default.
	FlushRetain int `json:"flush_retain,omitempty"`
	// FlushStore overrides the job's durable tier (still routed through the
	// fleet arbiter). Nil with FlushEvery > 0 selects a job-private
	// in-memory tier. A daemon passes a per-job disk store here so flushed
	// epochs survive the process.
	FlushStore ckptstore.Store `json:"-"`
	// ResumeEpochs warm-starts the job from the newest usable of these
	// durable epochs in FlushStore (core.Config.ResumeEpochs) instead of
	// factory state. Requires FlushEvery > 0.
	ResumeEpochs []uint64 `json:"resume_epochs,omitempty"`
	// RemoteEvery > 0 uploads every K-th committed epoch to the remote
	// checkpoint tier (core.Config.RemoteFlushEvery), routed through the
	// fleet's remote-bandwidth arbiter.
	RemoteEvery int `json:"remote_every,omitempty"`
	// RemoteRetain bounds the epochs the remote tier keeps
	// (core.Config.RemoteRetain); <= 0 selects the core default.
	RemoteRetain int `json:"remote_retain,omitempty"`
	// RemoteStore overrides the job's remote tier (still routed through
	// the remote arbiter). Nil with RemoteEvery > 0 selects a job-private
	// simulated remote hardened by the Resilient wrapper with an
	// in-memory fallback. A daemon passes its own Resilient-wrapped
	// remote here.
	RemoteStore ckptstore.Store `json:"-"`
}

// JobResult is one job's final accounting.
type JobResult struct {
	Name     string `json:"name"`
	Priority int    `json:"priority"`
	// QueueWait is the time between submission and admission.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// DegradedTime is the total time the job ran with folded nodes.
	DegradedTime time.Duration `json:"degraded_ns"`
	// Preempted counts spares the fleet took from this job for others;
	// Grants counts spares the fleet granted to this job while degraded.
	Preempted int `json:"preempted"`
	Grants    int `json:"grants"`

	Completed bool       `json:"completed"`
	Err       string     `json:"err,omitempty"`
	Stats     core.Stats `json:"stats"`
}

// FleetStats aggregates the fleet's lifetime accounting.
type FleetStats struct {
	Submitted   int `json:"submitted"`
	Admissions  int `json:"admissions"`
	Completed   int `json:"completed"`
	Failed      int `json:"failed"`
	Preemptions int `json:"preemptions"`
	SpareGrants int `json:"spare_grants"`

	QueueWait    time.Duration `json:"queue_wait_ns"`
	MaxQueueWait time.Duration `json:"max_queue_wait_ns"`
	DegradedTime time.Duration `json:"degraded_ns"`

	Arbiter       ArbiterStats `json:"arbiter"`
	RemoteArbiter ArbiterStats `json:"remote_arbiter"`
	Jobs          []JobResult  `json:"jobs"`
}

// Job is the handle Submit returns.
type Job struct {
	spec     JobSpec
	seq      int
	submitAt time.Time

	admitted chan struct{}
	done     chan struct{}

	// Scheduler-goroutine state (guarded by Scheduler.mu for readers).
	ctrl          *core.Controller
	admitAt       time.Time
	degradedSince time.Time
	res           JobResult
}

// Spec returns the submitted spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Admitted is closed once the job holds resources and its controller is
// running; Controller is valid from then on.
func (j *Job) Admitted() <-chan struct{} { return j.admitted }

// Done is closed when the job has completed or failed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Controller returns the job's controller (nil before admission) — the
// handle chaos tests use to inject failures.
func (j *Job) Controller() *core.Controller {
	select {
	case <-j.admitted:
		return j.ctrl
	default:
		return nil
	}
}

// Wait blocks until the job finishes and returns its result.
func (j *Job) Wait() JobResult {
	<-j.done
	return j.res
}

// Result returns the job's final accounting without blocking; ok is false
// while the job is still queued or running.
func (j *Job) Result() (res JobResult, ok bool) {
	select {
	case <-j.done:
		return j.res, true
	default:
		return JobResult{}, false
	}
}

type eventKind int

const (
	evSubmit eventKind = iota
	evFold
	evDone
)

type event struct {
	kind  eventKind
	job   *Job
	stats core.Stats
	err   error
}

// Scheduler multiplexes jobs over the shared pools. All scheduling state is
// owned by one goroutine; public methods communicate with it via channels.
type Scheduler struct {
	cfg       Config
	arb       *Arbiter
	remoteArb *Arbiter

	events  chan event
	stop    chan struct{}
	stopped chan struct{}
	once    sync.Once
	start   time.Time
	// runners counts the per-job goroutines inside Controller.Run. Close
	// waits for them: a stopped machine's Run is still joining its tier
	// writers — still writing under the job's store — until it returns.
	runners sync.WaitGroup

	mu     sync.Mutex
	closed bool
	jobs   []*Job
	stats  FleetStats

	// Loop-owned (no locking): pool balances and scheduling queues.
	freeNodes  int
	freeSpares int
	queue      []*Job
	running    map[*Job]bool
	waiting    []*Job // degraded jobs owed a spare, priority order
}

// New builds a scheduler over the given pools and starts its loop.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("fleet: node pool must be positive, got %d", cfg.Nodes)
	}
	if cfg.Spares < 0 {
		return nil, fmt.Errorf("fleet: negative spare pool %d", cfg.Spares)
	}
	s := &Scheduler{
		cfg:        cfg,
		arb:        NewArbiter(cfg.BytesPerSec, cfg.TransferSlots),
		remoteArb:  NewArbiter(cfg.RemoteBytesPerSec, 0), // any number of remote transfers at once
		events:     make(chan event, 64),
		stop:       make(chan struct{}),
		stopped:    make(chan struct{}),
		start:      time.Now(),
		freeNodes:  cfg.Nodes,
		freeSpares: cfg.Spares,
		running:    make(map[*Job]bool),
	}
	go s.loop()
	return s, nil
}

func (s *Scheduler) mark(format string, args ...any) {
	if s.cfg.Timeline == nil {
		return
	}
	s.cfg.Timeline.Add(time.Since(s.start).Seconds(), trace.Fleet, fmt.Sprintf(format, args...))
}

// ErrClosed reports an operation against a scheduler that has been Closed.
var ErrClosed = errors.New("fleet: scheduler closed")

// Submit queues a job for admission and returns its handle. Submitting
// after (or concurrently with) Close returns ErrClosed; a job accepted by
// Submit is always settled — admitted and run, or failed with ErrClosed in
// its result — so Wait and Drain never hang on it.
func (s *Scheduler) Submit(spec JobSpec) (*Job, error) {
	if spec.Tasks <= 0 {
		spec.Tasks = 1
	}
	if spec.Interval <= 0 {
		spec.Interval = 2 * time.Millisecond
	}
	if spec.Iters <= 0 {
		spec.Iters = 4000
	}
	j := &Job{
		spec:     spec,
		submitAt: time.Now(),
		admitted: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	j.seq = len(s.jobs)
	s.jobs = append(s.jobs, j)
	s.stats.Submitted++
	s.mu.Unlock()
	s.notify(event{kind: evSubmit, job: j})
	return j, nil
}

// notify delivers an event to the loop unless the scheduler has stopped.
func (s *Scheduler) notify(ev event) {
	select {
	case s.events <- ev:
	case <-s.stopped:
	}
}

// Drain waits until every submitted job has finished, then returns the
// final stats. It fails if the fleet has not quiesced within the timeout —
// the no-deadlock watchdog for chaos campaigns.
func (s *Scheduler) Drain(timeout time.Duration) (FleetStats, error) {
	deadline := time.After(timeout)
	s.mu.Lock()
	jobs := append([]*Job(nil), s.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-deadline:
			return s.Stats(), fmt.Errorf("fleet: drain timed out after %v with job %q unfinished", timeout, j.spec.Name)
		}
	}
	return s.Stats(), nil
}

// Close stops the scheduler loop, aborts still-running machines, and
// settles every unfinished job with ErrClosed so no Wait or Drain hangs.
// Idempotent and safe to call concurrently with Submit and Drain; Drain
// first for a clean shutdown. The closed flag is raised before the loop is
// stopped, so any job Submit accepted is visible to the final settle pass.
// Close returns only after every admitted job's Controller.Run has returned,
// so nothing of this scheduler writes to a job's stores afterwards.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.once.Do(func() { close(s.stop) })
	<-s.stopped
	s.runners.Wait()
}

// Stats snapshots the fleet accounting, including per-job results in
// submission order.
func (s *Scheduler) Stats() FleetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stats
	out.Arbiter = s.arb.Stats()
	out.RemoteArbiter = s.remoteArb.Stats()
	out.Jobs = make([]JobResult, 0, len(s.jobs))
	for _, j := range s.jobs {
		out.Jobs = append(out.Jobs, j.res)
	}
	return out
}

// loop is the scheduler goroutine: the only writer of pool balances and
// queues, and (under s.mu) of job results and aggregate stats.
func (s *Scheduler) loop() {
	defer close(s.stopped)
	for {
		select {
		case <-s.stop:
			for j := range s.running {
				j.ctrl.Machine().Stop()
			}
			s.settleAll()
			return
		case ev := <-s.events:
			switch ev.kind {
			case evSubmit:
				s.enqueue(ev.job)
				s.admitReady()
			case evFold:
				s.brokerSpare(ev.job)
			case evDone:
				s.finish(ev.job, ev.stats, ev.err)
				s.serveWaiting()
				s.admitReady()
			}
		}
	}
}

// enqueue inserts the job into the admission queue, priority-descending
// with submission order breaking ties.
func (s *Scheduler) enqueue(j *Job) {
	s.queue = append(s.queue, j)
	sort.SliceStable(s.queue, func(a, b int) bool {
		if s.queue[a].spec.Priority != s.queue[b].spec.Priority {
			return s.queue[a].spec.Priority > s.queue[b].spec.Priority
		}
		return s.queue[a].seq < s.queue[b].seq
	})
}

// admitReady admits queue-head jobs while resources last. Head-of-line by
// design: if the highest-priority waiter does not fit, nothing behind it is
// considered, trading utilization for freedom from priority starvation.
func (s *Scheduler) admitReady() {
	for len(s.queue) > 0 {
		j := s.queue[0]
		need := 2 * j.spec.Nodes
		if need > s.freeNodes || j.spec.Spares > s.freeSpares {
			return
		}
		s.queue = s.queue[1:]
		if err := s.admit(j); err != nil {
			s.mu.Lock()
			j.res = JobResult{Name: j.spec.Name, Priority: j.spec.Priority, Err: err.Error()}
			s.stats.Failed++
			s.mu.Unlock()
			close(j.admitted)
			close(j.done)
			continue
		}
		s.freeNodes -= need
		s.freeSpares -= j.spec.Spares
	}
}

// admit builds the job's controller and launches its runner.
func (s *Scheduler) admit(j *Job) error {
	spec := j.spec
	factory := spec.Factory
	if factory == nil {
		factory = chaos.RingFactory(spec.Tasks, spec.Iters, 0)
	}
	cc := core.Config{
		NodesPerReplica:    spec.Nodes,
		TasksPerNode:       spec.Tasks,
		Spares:             spec.Spares,
		Factory:            factory,
		Scheme:             spec.Scheme,
		Comparison:         spec.Comparison,
		CheckpointInterval: spec.Interval,
		HeartbeatInterval:  time.Millisecond,
		HeartbeatTimeout:   8 * time.Millisecond,
		Degraded:           true,
		OnFold:             func() { s.notify(event{kind: evFold, job: j}) },
	}
	if spec.FlushEvery > 0 {
		cc.FlushEvery = spec.FlushEvery
		cc.FlushRetain = spec.FlushRetain
		fs := spec.FlushStore
		if fs == nil {
			fs = ckptstore.NewMem()
		}
		cc.FlushStore = s.arb.Wrap(fs)
		cc.ResumeEpochs = spec.ResumeEpochs
	}
	if spec.RemoteEvery > 0 {
		cc.RemoteFlushEvery = spec.RemoteEvery
		cc.RemoteRetain = spec.RemoteRetain
		rs := spec.RemoteStore
		if rs == nil {
			// Job-private simulated remote behind the full resilience
			// stack: retries, breaker, and a local fallback so a remote
			// outage degrades the tier instead of failing the job.
			rs = ckptstore.NewResilient(
				ckptstore.NewRemote(ckptstore.RemoteOptions{}),
				ckptstore.ResilientOptions{Fallback: ckptstore.NewMem()},
			)
		}
		cc.RemoteStore = s.remoteArb.Wrap(rs)
	}
	ctrl, err := core.New(cc)
	if err != nil {
		return fmt.Errorf("fleet: job %q: %w", spec.Name, err)
	}
	j.ctrl = ctrl
	now := time.Now()
	wait := now.Sub(j.submitAt)
	j.admitAt = now
	s.running[j] = true
	s.mu.Lock()
	s.stats.Admissions++
	s.stats.QueueWait += wait
	if wait > s.stats.MaxQueueWait {
		s.stats.MaxQueueWait = wait
	}
	j.res.Name = spec.Name
	j.res.Priority = spec.Priority
	j.res.QueueWait = wait
	s.mu.Unlock()
	s.mark("admit %q prio=%d nodes=%d spares=%d after %v (pool nodes=%d spares=%d)",
		spec.Name, spec.Priority, 2*spec.Nodes, spec.Spares, wait.Round(time.Microsecond),
		s.freeNodes-2*spec.Nodes, s.freeSpares-spec.Spares)
	close(j.admitted)
	s.runners.Add(1)
	go func() {
		defer s.runners.Done()
		stats, err := ctrl.Run()
		s.notify(event{kind: evDone, job: j, stats: stats, err: err})
	}()
	return nil
}

// brokerSpare serves a fold notification: grant a free-pool spare, else
// preempt one from the lowest-priority healthy job the degraded job
// outranks, else put the job on the waiting list.
func (s *Scheduler) brokerSpare(j *Job) {
	if !s.running[j] {
		return
	}
	if j.degradedSince.IsZero() {
		j.degradedSince = time.Now()
	}
	if s.freeSpares > 0 {
		s.freeSpares--
		s.grant(j, "pool")
		return
	}
	if v := s.preemptionVictim(j); v != nil {
		if _, ok := v.ctrl.Machine().TakeSpare(); ok {
			s.mu.Lock()
			s.stats.Preemptions++
			v.res.Preempted++
			s.mu.Unlock()
			s.mark("preempt spare from %q (prio=%d) for %q (prio=%d)",
				v.spec.Name, v.spec.Priority, j.spec.Name, j.spec.Priority)
			s.grant(j, "preempt")
			return
		}
	}
	s.mark("%q degraded, no spare available; waiting", j.spec.Name)
	// One waiting entry per unserved fold: a job folded twice is owed two
	// grants, so duplicates are deliberate. serveWaiting drops entries that
	// turn out healthy by the time a spare frees up.
	s.waiting = append(s.waiting, j)
	sort.SliceStable(s.waiting, func(a, b int) bool {
		if s.waiting[a].spec.Priority != s.waiting[b].spec.Priority {
			return s.waiting[a].spec.Priority > s.waiting[b].spec.Priority
		}
		return s.waiting[a].seq < s.waiting[b].seq
	})
}

// preemptionVictim picks the lowest-priority running job that is healthy
// (no folded nodes), still holds an idle spare, and is outranked by j.
// Ties break toward the youngest job.
func (s *Scheduler) preemptionVictim(j *Job) *Job {
	var victim *Job
	for v := range s.running {
		if v == j || v.spec.Priority >= j.spec.Priority {
			continue
		}
		m := v.ctrl.Machine()
		if m.FoldedCount() > 0 || m.SpareCount() == 0 {
			continue
		}
		if victim == nil ||
			v.spec.Priority < victim.spec.Priority ||
			(v.spec.Priority == victim.spec.Priority && v.seq > victim.seq) {
			victim = v
		}
	}
	return victim
}

// grant hands one spare to a degraded job via FreeSpare (which re-expands
// the folded node) and settles its degraded-time accounting.
func (s *Scheduler) grant(j *Job, how string) {
	j.ctrl.FreeSpare()
	healthy := j.ctrl.Machine().FoldedCount() == 0
	s.mu.Lock()
	s.stats.SpareGrants++
	j.res.Grants++
	if healthy && !j.degradedSince.IsZero() {
		d := time.Since(j.degradedSince)
		j.res.DegradedTime += d
		s.stats.DegradedTime += d
		j.degradedSince = time.Time{}
	}
	s.mu.Unlock()
	s.mark("grant spare to %q via %s (healthy=%v)", j.spec.Name, how, healthy)
}

// serveWaiting grants free-pool spares to waiting degraded jobs, highest
// priority first.
func (s *Scheduler) serveWaiting() {
	for len(s.waiting) > 0 && s.freeSpares > 0 {
		j := s.waiting[0]
		s.waiting = s.waiting[1:]
		if !s.running[j] || j.ctrl.Machine().FoldedCount() == 0 {
			continue // finished or already re-expanded; owes nothing
		}
		s.freeSpares--
		s.grant(j, "pool (waited)")
	}
}

// finish settles a completed job and returns its resources to the pools.
// The job's physical nodes — including repaired-and-unused spares still in
// its machine — rejoin the free pools, modeling node repair at job end.
func (s *Scheduler) finish(j *Job, stats core.Stats, err error) {
	if !s.running[j] {
		return
	}
	delete(s.running, j)
	kept := s.waiting[:0]
	for _, w := range s.waiting {
		if w != j {
			kept = append(kept, w)
		}
	}
	s.waiting = kept
	s.freeNodes += 2 * j.spec.Nodes
	s.freeSpares += j.ctrl.Machine().SpareCount()
	s.mu.Lock()
	if !j.degradedSince.IsZero() {
		d := time.Since(j.degradedSince)
		j.res.DegradedTime += d
		s.stats.DegradedTime += d
		j.degradedSince = time.Time{}
	}
	j.res.Stats = stats
	if err != nil {
		j.res.Err = err.Error()
		s.stats.Failed++
	} else {
		j.res.Completed = true
		s.stats.Completed++
	}
	s.mu.Unlock()
	s.mark("done %q err=%v (pool nodes=%d spares=%d)", j.spec.Name, err, s.freeNodes, s.freeSpares)
	close(j.done)
}

// settleAll fails every job that has not finished when the loop stops —
// queued, admitted-and-aborted, or accepted by a Submit whose event never
// reached the loop. Runs on the loop goroutine after the final event, so
// the channel closes cannot race admit or finish.
func (s *Scheduler) settleAll() {
	s.mu.Lock()
	jobs := append([]*Job(nil), s.jobs...)
	s.mu.Unlock()
	for _, j := range jobs {
		select {
		case <-j.done:
			continue
		default:
		}
		s.mu.Lock()
		j.res.Name = j.spec.Name
		j.res.Priority = j.spec.Priority
		j.res.Err = ErrClosed.Error()
		s.stats.Failed++
		s.mu.Unlock()
		select {
		case <-j.admitted:
		default:
			close(j.admitted)
		}
		close(j.done)
	}
}
