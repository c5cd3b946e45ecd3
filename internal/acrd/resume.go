package acrd

import (
	"fmt"
	"slices"

	"acr/internal/ckptstore"
)

// Resume: rebuilding the control plane after the daemon itself died.
//
// The validation ladder has three rungs, each trusting the previous one
// less:
//
//  1. Journal claims — the replayed submit/flush/done records say which
//     jobs existed, which finished, and which epochs were flushed. Claims
//     only: an epoch journaled as flushed may since have been evicted by
//     retention, half-written by a dying flush, or corrupted at rest.
//  2. Disk audit — each unfinished job's checkpoint directory is reopened
//     (ckptstore.NewDisk rebuilds its index from the files actually
//     present) and ckptstore.CompleteEpochs derives the epochs with a full
//     complement of task checkpoints. Epochs the journal claimed but the
//     disk cannot fully produce are reported skipped; complete epochs are
//     salvaged — including ones whose flush record was torn off the
//     journal tail by the crash.
//  3. Payload verification — salvaged epochs are only candidates. The
//     core's warm start (Controller.resume walking adopt) re-reads every
//     task checkpoint, and the disk tier re-verifies each payload against
//     its stored root on Get, walking to the next-older epoch on any
//     corruption. A job whose every candidate fails verification cold
//     starts from factory state.
//
// Rung 3 lives in internal/core; this file implements rungs 1 and 2.

// ResumeReport is the audit of one resume pass.
type ResumeReport struct {
	// Resumed is true when the daemon started with resume enabled.
	Resumed bool `json:"resumed"`
	// JournalRecords / TornRecords count parseable and unparseable journal
	// lines (a kill -9 mid-append leaves at most one torn tail line).
	JournalRecords int `json:"journal_records"`
	TornRecords    int `json:"torn_records"`
	// Readmitted / Finished / ColdStarted count unfinished jobs resubmitted
	// warm, jobs that finished in a prior life, and readmitted jobs that
	// had no usable durable epoch at all.
	Readmitted  int `json:"readmitted"`
	Finished    int `json:"finished"`
	ColdStarted int `json:"cold_started"`
	// SalvagedEpochs / SkippedEpochs total the per-job audit counts.
	SalvagedEpochs int `json:"salvaged_epochs"`
	SkippedEpochs  int `json:"skipped_epochs"`
	// CompactedRecords counts the records the rewritten (compacted)
	// journal was reduced to: one submit per job plus only audit-confirmed
	// flush claims and final results. Stale claims, torn lines, and prior
	// resume records are dropped by the rewrite.
	CompactedRecords int `json:"compacted_records"`

	Jobs []ResumeJobReport `json:"jobs,omitempty"`
}

// ResumeJobReport is the per-job audit line.
type ResumeJobReport struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// State: "readmitted" (warm), "cold" (readmitted with nothing usable),
	// or "finished" (done record found; not resubmitted).
	State string `json:"state"`
	// Claimed lists epochs the journal asserts were flushed; Salvaged the
	// complete epochs the disk audit confirmed; Skipped the claims the
	// audit could not confirm (evicted, partial, or unreadable).
	Claimed  []uint64 `json:"claimed_epochs,omitempty"`
	Salvaged []uint64 `json:"salvaged_epochs,omitempty"`
	Skipped  []uint64 `json:"skipped_epochs,omitempty"`
}

// replay loads journal records into the registry and audits every
// unfinished job's disk tier (rungs 1 and 2), filling s.report. It writes
// nothing: the journal is not even open for appends yet — New compacts it
// from the replayed state before reopening. Called from New before the API
// is reachable, so it needs no locking discipline beyond the registry
// mutex.
func (s *Server) replay(recs []record, torn int) error {
	report := ResumeReport{Resumed: true, JournalRecords: len(recs), TornRecords: torn}

	claimed := make(map[int][]uint64)
	for _, r := range recs {
		switch r.Kind {
		case recSubmit:
			if r.Spec == nil {
				continue
			}
			req := *r.Spec
			rec := &jobRecord{
				id:   r.ID,
				req:  req,
				dir:  s.jobDir(r.ID),
				want: 2 * req.Nodes * max(1, req.Tasks),
			}
			s.jobs[r.ID] = rec
			s.order = append(s.order, r.ID)
			if r.ID >= s.nextID {
				s.nextID = r.ID + 1
			}
		case recFlush:
			claimed[r.ID] = append(claimed[r.ID], r.Epoch)
		case recResume:
			// A previous life's audit; informational only — this life
			// re-audits the disk from scratch.
		case recDone:
			if rec, ok := s.jobs[r.ID]; ok && r.Result != nil {
				rec.prior = r.Result
			}
		}
	}

	for _, id := range s.order {
		rec := s.jobs[id]
		// Sort and dedupe a copy: nil stays nil (no claims, no JSON key).
		claims := slices.Clone(claimed[id])
		slices.Sort(claims)
		jr := ResumeJobReport{ID: id, Name: rec.req.Name, Claimed: slices.Compact(claims)}
		if rec.prior != nil {
			jr.State = "finished"
			report.Finished++
			report.Jobs = append(report.Jobs, jr)
			continue
		}

		// Rung 2: audit the disk. The reopen rebuilds the index from the
		// files actually present; CompleteEpochs keeps only epochs with a
		// full 2×nodes×tasks complement.
		salvaged, err := auditJobDir(rec.dir, rec.want)
		if err != nil {
			return fmt.Errorf("acrd: resume job %d: %w", id, err)
		}
		jr.Salvaged = salvaged
		onDisk := make(map[uint64]bool, len(salvaged))
		for _, e := range salvaged {
			onDisk[e] = true
		}
		for _, e := range jr.Claimed {
			if !onDisk[e] {
				jr.Skipped = append(jr.Skipped, e)
			}
		}

		if len(salvaged) > 0 {
			jr.State = "readmitted"
			report.Readmitted++
		} else {
			jr.State = "cold"
			report.ColdStarted++
		}
		report.SalvagedEpochs += len(jr.Salvaged)
		report.SkippedEpochs += len(jr.Skipped)

		rec.resumed = true
		rec.salvaged = jr.Salvaged
		rec.skipped = jr.Skipped
		report.Jobs = append(report.Jobs, jr)
	}

	s.report = report
	return nil
}

// compactedRecords rebuilds the journal's minimal equivalent from the
// replayed registry: per job, its submit record, then either the final
// result (finished jobs) or one flush record per audit-confirmed epoch.
// Everything else — stale claims the audit skipped, prior resume records,
// flush records for since-evicted epochs — is history the next resume
// would re-derive anyway, so the rewrite drops it.
func (s *Server) compactedRecords() []record {
	var out []record
	for _, id := range s.order {
		rec := s.jobs[id]
		req := rec.req
		out = append(out, record{Kind: recSubmit, ID: id, Spec: &req})
		if rec.prior != nil {
			out = append(out, record{Kind: recDone, ID: id, Result: rec.prior})
			continue
		}
		for _, e := range rec.salvaged {
			out = append(out, record{Kind: recFlush, ID: id, Epoch: e})
		}
	}
	s.report.CompactedRecords = len(out)
	return out
}

// readmit journals a resume record for every unfinished job and relaunches
// it warm from its salvaged epochs. Runs after the compacted journal has
// reopened for appends, so a crash between compaction and here replays the
// same compacted state again.
func (s *Server) readmit() error {
	for _, id := range s.order {
		rec := s.jobs[id]
		if rec.prior != nil {
			continue
		}
		if err := s.jour.append(record{Kind: recResume, ID: id, Salvaged: rec.salvaged, Skipped: rec.skipped}); err != nil {
			return err
		}
		if err := s.launch(rec, rec.salvaged); err != nil {
			return fmt.Errorf("acrd: readmit job %d: %w", id, err)
		}
	}
	return nil
}

// auditJobDir reopens a job's checkpoint directory and returns its
// complete (restorable) epochs, ascending. The transient handle is closed
// again — launch opens its own.
func auditJobDir(dir string, want int) ([]uint64, error) {
	disk, err := ckptstore.NewDisk(dir, nil)
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	return ckptstore.CompleteEpochs(disk, want), nil
}
