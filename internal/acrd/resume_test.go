package acrd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"acr/internal/fleet"
)

// waitDurable polls until the job's durable index holds at least n epochs.
func waitDurable(t *testing.T, rec *jobRecord, n int) []uint64 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		<-rec.job.Admitted()
		if ctrl := rec.job.Controller(); ctrl != nil {
			if durable := ctrl.DurableEpochs(); len(durable) >= n {
				return durable
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached %d durable epochs", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResumeAfterAbruptDeath is the daemon's own checkpoint/restart story
// end to end: a first daemon life runs a job and dies with the job
// unfinished; a second life with Resume replays the journal, audits the
// bytes actually on disk, readmits the job warm, and the job still
// finishes bit-identical to the golden serial ring.
//
// The death is made adversarial before the second life starts:
//   - a torn half-record is appended to the journal (kill -9 mid-append),
//   - one task-checkpoint file of the newest flushed epoch is deleted, so
//     the disk holds only part of that epoch.
func TestResumeAfterAbruptDeath(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	// Long enough to flush several epochs before the "crash", short enough
	// to finish promptly in the second life even under the race detector.
	id, err := s1.Submit(SubmitRequest{
		Name: "phoenix", Nodes: 2, Tasks: 1, Iters: 300_000, FlushEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := s1.lookup(id)
	waitDurable(t, rec1, 2)
	// Close settles the job with fleet.ErrClosed, which watch deliberately
	// does NOT journal as done — the journal now looks exactly like a
	// crash: a submit record, no outcome.
	s1.Close()
	// What actually survived on disk (retention kept evicting while the
	// job ran, so only a post-mortem audit is authoritative).
	durable, _, err := auditJobDir(rec1.dir, rec1.want)
	if err != nil {
		t.Fatal(err)
	}
	if len(durable) < 2 {
		t.Fatalf("need >= 2 surviving durable epochs, have %v", durable)
	}
	if _, ok := rec1.job.Result(); !ok {
		t.Fatal("job not settled by close")
	}

	// Sanity: no done record was journaled for the unfinished job.
	blob, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), `"kind":"done"`) {
		t.Fatalf("shutdown-settled job was journaled done:\n%s", blob)
	}

	// Adversarial damage. Deleting one file of the newest flushed epoch
	// leaves it partly on disk; the audit must skip it and salvage an
	// older epoch.
	newest := durable[len(durable)-1]
	victim := filepath.Join(dir, "jobs", fmt.Sprintf("%04d", id), fmt.Sprintf("r0_n0_t0_e%d.ckpt", newest))
	if err := os.Remove(victim); err != nil {
		t.Fatalf("damage newest epoch: %v", err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"kind":"do`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// A fresh start over this state must be refused without Resume.
	if _, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}}); err == nil {
		t.Fatal("New without Resume accepted a non-empty journal")
	}

	// Second life.
	s2, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer func() {
		ts.Close()
		s2.Close()
	}()

	rep := s2.ResumeReport()
	if !rep.Resumed || rep.Readmitted != 1 {
		t.Fatalf("resume report: %+v, want 1 readmitted", rep)
	}
	if rep.TornRecords != 1 {
		t.Fatalf("torn records = %d, want 1", rep.TornRecords)
	}
	if len(rep.Jobs) != 1 {
		t.Fatalf("resume jobs = %+v", rep.Jobs)
	}
	jr := rep.Jobs[0]
	if jr.State != "readmitted" {
		t.Fatalf("job state = %q", jr.State)
	}
	// The damaged epoch is on disk but must not be salvaged.
	for _, e := range jr.Salvaged {
		if e == newest {
			t.Fatalf("damaged epoch %d salvaged: %+v", newest, jr)
		}
	}
	found := false
	for _, e := range jr.Skipped {
		if e == newest {
			found = true
		}
	}
	if !found {
		t.Fatalf("damaged epoch %d not reported skipped: %+v", newest, jr)
	}
	if len(jr.Salvaged) == 0 {
		t.Fatalf("nothing salvaged: %+v", jr)
	}

	// The readmitted job must warm-start from a salvaged epoch, finish,
	// and still match the golden serial ring bit for bit.
	rec2, ok := s2.lookup(id)
	if !ok {
		t.Fatalf("job %d missing after resume", id)
	}
	select {
	case <-rec2.job.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("resumed job did not finish")
	}
	res := rec2.job.Wait()
	if !res.Completed {
		t.Fatalf("resumed job failed: %s", res.Err)
	}
	if res.Stats.ResumedEpoch == 0 {
		t.Fatal("resumed job cold-started; want warm start from a salvaged epoch")
	}
	if res.Stats.ResumedEpoch == newest {
		t.Fatalf("resumed from the damaged epoch %d", newest)
	}
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/verify", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok": true`) {
		t.Fatalf("verify after resume: %d %s", resp.StatusCode, body)
	}

	// The API reports the resume provenance on the job itself.
	resp, err = http.Get(fmt.Sprintf("%s/api/v1/jobs/%d", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	resp.Body.Close()
	if !strings.Contains(body, `"resumed": true`) || !strings.Contains(body, `"salvaged_epochs"`) {
		t.Fatalf("job status missing resume provenance: %s", body)
	}
}

// TestResumeCarriesPriorResults: jobs that finished before the restart are
// listed with their journaled result and are not resubmitted; their
// checkpoints are not re-audited.
func TestResumeCarriesPriorResults(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(SubmitRequest{Name: "ancestor", Nodes: 1, Tasks: 1, Iters: 500, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := s1.lookup(id)
	select {
	case <-rec.job.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	// Let watch journal the done record before closing.
	s1.Close()

	s2, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.ResumeReport()
	if rep.Finished != 1 || rep.Readmitted != 0 {
		t.Fatalf("resume report: %+v, want 1 finished, 0 readmitted", rep)
	}
	st := s2.Statuses()
	if len(st) != 1 || st[0].State != "completed" || !st[0].PriorLife {
		t.Fatalf("statuses after resume: %+v", st)
	}
	if st[0].Result == nil || !st[0].Result.Completed {
		t.Fatalf("prior-life result missing: %+v", st[0])
	}
	// Daemon ids continue past the prior life's.
	id2, err := s2.Submit(SubmitRequest{Name: "descendant", Nodes: 1, Iters: 200})
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Fatalf("next id = %d, want %d", id2, id+1)
	}
}

// TestResumeTwoCopyDirectory: a job directory written when durable tiers
// kept both replicas' copies of every epoch (an r1_ file beside each r0_
// one) stays resumable. The audit counts one replica-0 file per (node,
// task), so such an epoch is salvaged — even one whose replica-1 copy is
// missing, since both replicas restore from replica 0's — while an epoch
// missing a replica-0 file is skipped. The readmitted job warm-starts and
// finishes golden.
func TestResumeTwoCopyDirectory(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(SubmitRequest{Name: "legacy", Nodes: 2, Tasks: 1, Iters: 300_000, FlushEvery: 1, FlushRetain: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := s1.lookup(id)
	waitDurable(t, rec1, 3)
	s1.Close()
	durable, _, err := auditJobDir(rec1.dir, rec1.want)
	if err != nil {
		t.Fatal(err)
	}
	if len(durable) < 3 {
		t.Fatalf("need >= 3 surviving durable epochs, have %v", durable)
	}

	// Rewrite the directory into the two-copy layout: replica 1's copy of
	// a committed epoch is byte-identical to replica 0's.
	files, err := filepath.Glob(filepath.Join(rec1.dir, "r0_*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(durable)*rec1.want {
		t.Fatalf("%d replica-0 files for %d epochs, want %d each", len(files), len(durable), rec1.want)
	}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		twin := filepath.Join(rec1.dir, "r1_"+strings.TrimPrefix(filepath.Base(f), "r0_"))
		if err := os.WriteFile(twin, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	newest, older := durable[len(durable)-1], durable[len(durable)-2]
	file := func(rep int, epoch uint64) string {
		return filepath.Join(rec1.dir, fmt.Sprintf("r%d_n1_t0_e%d.ckpt", rep, epoch))
	}
	if err := os.Remove(file(1, newest)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(file(0, older)); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2.Handler())
	defer func() {
		ts.Close()
		s2.Close()
	}()
	rep := s2.ResumeReport()
	if rep.Readmitted != 1 || len(rep.Jobs) != 1 {
		t.Fatalf("resume report: %+v, want 1 readmitted", rep)
	}
	jr := rep.Jobs[0]
	if !slices.Contains(jr.Salvaged, newest) {
		t.Fatalf("newest epoch %d, complete in replica 0, not salvaged: %+v", newest, jr)
	}
	if slices.Contains(jr.Salvaged, older) || !slices.Contains(jr.Skipped, older) {
		t.Fatalf("epoch %d, missing a replica-0 file, not skipped: %+v", older, jr)
	}
	if want := len(durable) - 1; len(jr.Salvaged) != want {
		t.Fatalf("salvaged %v, want %d epochs", jr.Salvaged, want)
	}

	rec2, _ := s2.lookup(id)
	select {
	case <-rec2.job.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("resumed job did not finish")
	}
	res := rec2.job.Wait()
	if !res.Completed {
		t.Fatalf("resumed job failed: %s", res.Err)
	}
	if res.Stats.ResumedEpoch != newest {
		t.Fatalf("resumed epoch = %d, want the newest two-copy epoch %d", res.Stats.ResumedEpoch, newest)
	}
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%d/verify", ts.URL, id))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"ok": true`) {
		t.Fatalf("verify after resume: %d %s", resp.StatusCode, body)
	}
}
