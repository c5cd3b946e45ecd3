package acrd

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"acr/internal/buildinfo"
	"acr/internal/ckptstore"
	"acr/internal/core"
	"acr/internal/fleet"
)

// Handler builds the daemon's HTTP API. Routes use Go 1.22 method+wildcard
// patterns; every response body is JSON except /metrics (Prometheus text).
// Mutating routes (submit, flush, restore) require the configured auth
// token; read routes stay open so scrapers and dashboards need no write
// credential.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("POST /api/v1/jobs", s.requireAuth(s.handleSubmit))
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /api/v1/jobs/{id}/inventory", s.handleInventory)
	mux.HandleFunc("GET /api/v1/jobs/{id}/verify", s.handleVerify)
	mux.HandleFunc("POST /api/v1/jobs/{id}/flush", s.requireAuth(s.handleFlush))
	mux.HandleFunc("POST /api/v1/jobs/{id}/restore", s.requireAuth(s.handleRestore))
	mux.HandleFunc("GET /api/v1/fleet", s.handleFleet)
	mux.HandleFunc("GET /api/v1/resume", s.handleResume)
	return mux
}

// requireAuth gates a mutating handler behind Config.AuthToken. The token
// rides either "Authorization: Bearer <token>" or "X-ACRD-Token: <token>";
// comparison is constant-time. An empty configured token leaves the route
// open (single-user dev daemons).
func (s *Server) requireAuth(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.AuthToken == "" {
		return h
	}
	want := []byte(s.cfg.AuthToken)
	return func(w http.ResponseWriter, r *http.Request) {
		tok := r.Header.Get("X-ACRD-Token")
		if tok == "" {
			if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
				tok = strings.TrimPrefix(ah, "Bearer ")
			}
		}
		if subtle.ConstantTimeCompare([]byte(tok), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="acrd"`)
			writeErr(w, http.StatusUnauthorized, "missing or invalid auth token")
			return
		}
		h(w, r)
	}
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// pathJob resolves the {id} wildcard to a registry entry, writing the 404
// itself on failure.
func (s *Server) pathJob(w http.ResponseWriter, r *http.Request) (*jobRecord, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil, false
	}
	rec, ok := s.lookup(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job id %d", id)
		return nil, false
	}
	return rec, true
}

// GET /healthz — liveness plus build identity and uptime.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status    string         `json:"status"`
		Build     buildinfo.Info `json:"build"`
		UptimeSec float64        `json:"uptime_sec"`
	}{
		Status:    "ok",
		Build:     s.info,
		UptimeSec: time.Since(s.start).Seconds(),
	})
}

// POST /api/v1/jobs — submit. 400 on malformed or invalid specs.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed job spec: %v", err)
		return
	}
	id, err := s.Submit(req)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, fleet.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, "%v", err)
		return
	}
	rec, _ := s.lookup(id)
	writeJSON(w, http.StatusCreated, s.status(rec))
}

// GET /api/v1/jobs — list all jobs in submission order.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: s.Statuses()})
}

// GET /api/v1/jobs/{id} — one job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.status(rec))
}

// progressEvent is one SSE payload / poll response.
type progressEvent struct {
	ID       int              `json:"id"`
	State    string           `json:"state"`
	Progress *core.Progress   `json:"progress,omitempty"`
	Result   *fleet.JobResult `json:"result,omitempty"`
}

func (s *Server) progressEvent(rec *jobRecord) progressEvent {
	st := s.status(rec)
	return progressEvent{ID: st.ID, State: st.State, Progress: st.Progress, Result: st.Result}
}

// GET /api/v1/jobs/{id}/progress — one snapshot by default; with
// ?stream=1 (or Accept: text/event-stream) an SSE stream of snapshots
// every interval_ms (default 100) until the job settles or the client
// disconnects.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	stream := r.URL.Query().Get("stream") == "1" || r.Header.Get("Accept") == "text/event-stream"
	if !stream {
		writeJSON(w, http.StatusOK, s.progressEvent(rec))
		return
	}
	interval := 100 * time.Millisecond
	if ms, err := strconv.ParseFloat(r.URL.Query().Get("interval_ms"), 64); err == nil && ms > 0 {
		interval = time.Duration(ms * float64(time.Millisecond))
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, http.StatusNotImplemented, "streaming unsupported by transport")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	emit := func(ev progressEvent) bool {
		blob, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", blob); err != nil {
			return false
		}
		fl.Flush()
		return ev.State != "completed" && ev.State != "failed"
	}
	if !emit(s.progressEvent(rec)) {
		return
	}
	var done <-chan struct{}
	s.mu.Lock()
	if rec.job != nil {
		done = rec.job.Done()
	}
	s.mu.Unlock()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			emit(s.progressEvent(rec)) // terminal snapshot carries the result
			return
		case <-ticker.C:
			if !emit(s.progressEvent(rec)) {
				return
			}
		}
	}
}

// tierInventory is one storage tier's epoch census.
type tierInventory struct {
	Name string `json:"name"`
	// Want is the tier's own complement of task checkpoints per complete
	// epoch: 2×nodes×tasks in the hot tier, which holds both replicas, and
	// nodes×tasks in a durable tier, which keeps one copy per compared
	// pair. Epochs maps epoch → resident task-checkpoint count; Complete
	// lists the epochs holding that complement.
	Want     int                `json:"want"`
	Epochs   map[uint64]int     `json:"epochs"`
	Complete []uint64           `json:"complete_epochs,omitempty"`
	Counters ckptstore.Counters `json:"counters"`
}

// tierView takes the census of one tier whose complete epochs hold
// perReplica task checkpoints of each replica below replicas.
func tierView(st ckptstore.Store, replicas, perReplica int) tierInventory {
	return tierInventory{
		Name:     st.Name(),
		Want:     replicas * perReplica,
		Epochs:   ckptstore.EpochInventory(st),
		Complete: ckptstore.CompleteEpochs(st, replicas, perReplica),
		Counters: st.Counters(),
	}
}

// GET /api/v1/jobs/{id}/inventory — per-tier checkpoint census. Running
// jobs report their live hot and durable tiers; settled or prior-life
// jobs report a fresh read-only audit of the on-disk tier.
func (s *Server) handleInventory(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	resp := struct {
		ID int `json:"id"`
		// Want is the durable complement: nodes×tasks task checkpoints,
		// one copy per compared pair. Each tier reports its own.
		Want          int             `json:"want"`
		Tiers         []tierInventory `json:"tiers"`
		DurableEpochs []uint64        `json:"durable_epochs,omitempty"`
	}{ID: rec.id, Want: rec.want}

	s.mu.Lock()
	job := rec.job
	s.mu.Unlock()
	var ctrl *core.Controller
	if job != nil {
		ctrl = job.Controller()
	}
	if ctrl != nil {
		// The ladder's first store is the hot tier, which holds both
		// replicas; the durable tiers below it keep replica 0's copy.
		for i, st := range ctrl.LadderStores() {
			replicas := 1
			if i == 0 {
				replicas = 2
			}
			resp.Tiers = append(resp.Tiers, tierView(st, replicas, rec.want))
		}
		resp.DurableEpochs = ctrl.DurableEpochs()
	} else {
		// No live machine: audit the directory itself.
		disk, err := ckptstore.NewDisk(rec.dir, nil)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "audit durable tier: %v", err)
			return
		}
		defer disk.Close()
		resp.Tiers = append(resp.Tiers, tierView(disk, 1, rec.want))
		resp.DurableEpochs = ckptstore.CompleteEpochs(disk, 1, rec.want)
	}
	writeJSON(w, http.StatusOK, resp)
}

// GET /api/v1/jobs/{id}/verify — golden-ring oracle for a completed job:
// every task of both replicas compared bit for bit against the serial
// reference. 409 while the job is still running; prior-life jobs have no
// machine left to inspect.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	st := s.status(rec)
	if st.PriorLife {
		writeErr(w, http.StatusConflict, "job %d finished in a prior daemon life; no machine to verify", rec.id)
		return
	}
	if st.State != "completed" {
		writeErr(w, http.StatusConflict, "job %d is %s; verify needs a completed job", rec.id, st.State)
		return
	}
	s.mu.Lock()
	job := rec.job
	s.mu.Unlock()
	var errStrs []string
	for _, e := range fleet.VerifyRing(job) {
		errStrs = append(errStrs, e.Error())
	}
	writeJSON(w, http.StatusOK, struct {
		ID     int      `json:"id"`
		OK     bool     `json:"ok"`
		Errors []string `json:"errors,omitempty"`
	}{ID: rec.id, OK: len(errStrs) == 0, Errors: errStrs})
}

// liveController resolves a running job's controller, writing the 409
// itself when the job is queued or settled.
func (s *Server) liveController(w http.ResponseWriter, rec *jobRecord) (*core.Controller, bool) {
	s.mu.Lock()
	job := rec.job
	s.mu.Unlock()
	if job == nil {
		writeErr(w, http.StatusConflict, "job %d has no live machine", rec.id)
		return nil, false
	}
	if _, settled := job.Result(); settled {
		writeErr(w, http.StatusConflict, "job %d already settled", rec.id)
		return nil, false
	}
	ctrl := job.Controller()
	if ctrl == nil {
		writeErr(w, http.StatusConflict, "job %d still queued", rec.id)
		return nil, false
	}
	return ctrl, true
}

// POST /api/v1/jobs/{id}/flush — force a durable flush of the committed
// epoch, off the FlushEvery cadence.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	ctrl, ok := s.liveController(w, rec)
	if !ok {
		return
	}
	epoch, err := ctrl.FlushCommitted(s.cfg.OpTimeout)
	if err != nil {
		status := http.StatusConflict
		if !errors.Is(err, core.ErrNotRunning) {
			status = http.StatusUnprocessableEntity
		}
		writeErr(w, status, "flush job %d: %v", rec.id, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID    int    `json:"id"`
		Epoch uint64 `json:"epoch"`
	}{ID: rec.id, Epoch: epoch})
}

// POST /api/v1/jobs/{id}/restore?epoch=N — rewind the running job to a
// durable epoch. 404 when the epoch is not in the durable index.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.pathJob(w, r)
	if !ok {
		return
	}
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "restore needs ?epoch=N: %v", err)
		return
	}
	ctrl, ok := s.liveController(w, rec)
	if !ok {
		return
	}
	durable := ctrl.DurableEpochs()
	known := false
	for _, e := range durable {
		if e == epoch {
			known = true
			break
		}
	}
	if !known {
		writeErr(w, http.StatusNotFound, "job %d holds no durable epoch %d (have %v)", rec.id, epoch, durable)
		return
	}
	if err := ctrl.RestoreEpoch(epoch, s.cfg.OpTimeout); err != nil {
		status := http.StatusConflict
		if !errors.Is(err, core.ErrNotRunning) {
			status = http.StatusUnprocessableEntity
		}
		writeErr(w, status, "restore job %d epoch %d: %v", rec.id, epoch, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ID    int    `json:"id"`
		Epoch uint64 `json:"epoch"`
	}{ID: rec.id, Epoch: epoch})
}

// GET /api/v1/fleet — scheduler-level accounting.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}

// GET /api/v1/resume — the last resume audit.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ResumeReport())
}
