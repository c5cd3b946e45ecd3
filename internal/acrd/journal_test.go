package acrd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"acr/internal/core"
	"acr/internal/fleet"
)

// journalKinds returns the kind of every line of the journal at path, in
// order, failing the test on a line that does not parse.
func journalKinds(t *testing.T, path string) []string {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, line := range strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n") {
		var r struct{ Kind string }
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		kinds = append(kinds, r.Kind)
	}
	return kinds
}

// waitJob waits for a job to settle and returns its result.
func waitJob(t *testing.T, rec *jobRecord) fleet.JobResult {
	t.Helper()
	select {
	case <-rec.job.Done():
	case <-time.After(180 * time.Second):
		t.Fatalf("job %d did not finish", rec.id)
	}
	return rec.job.Wait()
}

// TestJournalHoldsSubmitAndDone: a job that flushes every epoch and
// finishes leaves exactly its submit and its done record in the journal.
// Which epochs reached the disk is the disk's to say, not the journal's.
func TestJournalHoldsSubmitAndDone(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(SubmitRequest{Name: "flusher", Nodes: 2, Tasks: 1, Iters: 100_000, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := s.lookup(id)
	res := waitJob(t, rec)
	s.Close()
	if !res.Completed {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.Stats.FlushedEpochs < 3 {
		t.Fatalf("job flushed %d epochs, want >= 3", res.Stats.FlushedEpochs)
	}
	kinds := journalKinds(t, filepath.Join(dir, "journal.jsonl"))
	if len(kinds) != 2 || kinds[0] != "submit" || kinds[1] != "done" {
		t.Fatalf("journal kinds = %v after %d flushed epochs, want [submit done]", kinds, res.Stats.FlushedEpochs)
	}
}

// TestJournalReadsLongDoneRecord: a done record carries the job's whole
// stats, eight per-round duration series included, so a long job's line
// runs to megabytes. Replay must read it whole (and still count a torn
// tail line) and resume must start.
func TestJournalReadsLongDoneRecord(t *testing.T) {
	const rounds = 70_000
	series := make([]time.Duration, rounds)
	for i := range series {
		series[i] = 1_234_567 + time.Duration(i)
	}
	res := fleet.JobResult{Name: "long", Completed: true, Stats: core.Stats{
		CheckpointTimes: series, BlockedTimes: series,
		CaptureTimes: series, ExchangeTimes: series, CompareTimes: series,
		CaptureBusyTimes: series, ExchangeBusyTimes: series, CompareBusyTimes: series,
	}}
	spec := SubmitRequest{Name: "long", Nodes: 1, Tasks: 1, Iters: 1, FlushEvery: 1}
	var lines []string
	for _, r := range []record{{Kind: recSubmit, Spec: &spec}, {Kind: recDone, Result: &res}} {
		blob, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(blob))
	}
	if n := len(lines[1]); n <= 4<<20 {
		t.Fatalf("done record is %d bytes; the test needs more than 4 MiB", n)
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")
	if err := os.WriteFile(jpath, []byte(strings.Join(lines, "\n")+"\n"+`{"kind":"sub`), 0o644); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := readJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || torn != 1 {
		t.Fatalf("read %d records, %d torn; want 2 and 1", len(recs), torn)
	}
	s, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 4}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if rep := s.ResumeReport(); rep.Finished != 1 || rep.Readmitted != 0 {
		t.Fatalf("resume report: %+v, want 1 finished", rep)
	}
	st := s.Statuses()
	if len(st) != 1 || st[0].Result == nil || len(st[0].Result.Stats.CompareBusyTimes) != rounds {
		t.Fatalf("prior-life result not carried whole: %d statuses", len(st))
	}
}

// TestResumeFromFlushClaimJournal is the upgrade path: a journal written
// while every completed flush was journaled — a submit, flush claims, a
// previous life's resume record and a torn tail — still resumes. The job
// is readmitted warm from what its disk holds, finishes bit-identical to
// the golden ring, and the first compaction leaves only submit and done
// records.
func TestResumeFromFlushClaimJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.jsonl")

	s1, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.Submit(SubmitRequest{Name: "upgrade", Nodes: 2, Tasks: 1, Iters: 300_000, FlushEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec1, _ := s1.lookup(id)
	waitDurable(t, rec1, 2)
	s1.Close()
	salvaged, _, err := auditJobDir(rec1.dir, rec1.want)
	if err != nil {
		t.Fatal(err)
	}
	if len(salvaged) == 0 {
		t.Fatal("life 1 left no complete epoch on disk")
	}

	// Rewrite the journal the way the flush-claiming daemon left it.
	blob, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	old := []string{strings.TrimSuffix(string(blob), "\n")}
	for e := uint64(1); e <= salvaged[len(salvaged)-1]; e++ {
		old = append(old, fmt.Sprintf(`{"kind":"flush","id":%d,"epoch":%d}`, id, e))
	}
	old = append(old, fmt.Sprintf(`{"kind":"resume","id":%d,"salvaged":[%d],"skipped":[1]}`, id, salvaged[0]))
	if err := os.WriteFile(jpath, []byte(strings.Join(old, "\n")+"\n"+`{"kind":"flu`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{DataDir: dir, Fleet: fleet.Config{Nodes: 8}, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.ResumeReport()
	if rep.JournalRecords != len(old) || rep.TornRecords != 1 || rep.Readmitted != 1 || rep.CompactedRecords != 1 {
		t.Fatalf("resume report: %+v; want %d records, 1 torn, 1 readmitted, compacted to 1", rep, len(old))
	}
	if kinds := journalKinds(t, jpath); len(kinds) != 1 || kinds[0] != "submit" {
		t.Fatalf("compacted journal kinds = %v, want [submit]", kinds)
	}
	rec2, _ := s2.lookup(id)
	res := waitJob(t, rec2)
	if !res.Completed {
		t.Fatalf("readmitted job failed: %s", res.Err)
	}
	if res.Stats.ResumedEpoch == 0 {
		t.Fatal("readmitted job cold-started; want a warm start from a salvaged epoch")
	}
	if errs := fleet.VerifyRing(rec2.job); len(errs) > 0 {
		t.Fatalf("golden violation after upgrade resume: %v", errs)
	}
	s2.Close()
	if kinds := journalKinds(t, jpath); len(kinds) != 2 || kinds[0] != "submit" || kinds[1] != "done" {
		t.Fatalf("journal kinds after the job finished = %v, want [submit done]", kinds)
	}
}
