package acrd

import (
	"fmt"
	"slices"

	"acr/internal/ckptstore"
)

// Resume: rebuilding the control plane after the daemon itself died.
//
// The journal says which jobs existed and which finished; it makes no
// claim about checkpoints. What a job can restart from is then validated
// in two rungs, the second trusting the first less:
//
//  1. Disk audit — each unfinished job's checkpoint directory is reopened
//     (ckptstore.NewDisk rebuilds its index from the files actually
//     present) and its epochs are sorted: those with the full nodes×tasks
//     complement of the one copy a durable tier keeps per compared pair
//     (replica 0's checkpoints, ckptstore.CompleteEpochs) are salvaged,
//     those the disk holds only part of (a torn flush, a damaged epoch, an
//     interrupted eviction) are reported skipped. A directory written when
//     durable tiers kept both replicas' copies also holds every replica-0
//     checkpoint, so its epochs stay salvageable.
//  2. Payload verification — salvaged epochs are only candidates. The
//     core's warm start (Controller.resume walking adopt) re-reads every
//     task checkpoint, and the disk tier re-verifies each payload against
//     its stored root on Get, walking to the next-older epoch on any
//     corruption. A job whose every candidate fails verification cold
//     starts from factory state.
//
// Rung 2 lives in internal/core; this file implements rung 1.

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
	// journal was reduced to: one submit per job plus the final results.
	// Torn lines and the retired flush and resume kinds are dropped by the
	// rewrite.
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
	// Salvaged lists the complete epochs the disk audit found; Skipped the
	// epochs the disk holds only part of.
	Salvaged []uint64 `json:"salvaged_epochs,omitempty"`
	Skipped  []uint64 `json:"skipped_epochs,omitempty"`
}

// replay loads journal records into the registry and audits every
// unfinished job's disk tier (rung 1), filling s.report. It writes
// nothing: the journal is not even open for appends yet — New compacts it
// from the replayed state before reopening. Called from New before the API
// is reachable, so it needs no locking discipline beyond the registry
// mutex.
func (s *Server) replay(recs []record, torn int) error {
	report := ResumeReport{Resumed: true, JournalRecords: len(recs), TornRecords: torn}

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
				want: req.Nodes * max(1, req.Tasks),
			}
			s.jobs[r.ID] = rec
			s.order = append(s.order, r.ID)
			if r.ID >= s.nextID {
				s.nextID = r.ID + 1
			}
		case recDone:
			if rec, ok := s.jobs[r.ID]; ok && r.Result != nil {
				rec.prior = r.Result
			}
		}
	}

	for _, id := range s.order {
		rec := s.jobs[id]
		jr := ResumeJobReport{ID: id, Name: rec.req.Name}
		if rec.prior != nil {
			jr.State = "finished"
			report.Finished++
			report.Jobs = append(report.Jobs, jr)
			continue
		}

		var err error
		jr.Salvaged, jr.Skipped, err = auditJobDir(rec.dir, rec.want)
		if err != nil {
			return fmt.Errorf("acrd: resume job %d: %w", id, err)
		}
		if len(jr.Salvaged) > 0 {
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
// replayed registry: per job, its submit record and, for finished jobs,
// the final result. Torn lines and the retired flush and resume kinds are
// not carried over.
func (s *Server) compactedRecords() []record {
	var out []record
	for _, id := range s.order {
		rec := s.jobs[id]
		req := rec.req
		out = append(out, record{Kind: recSubmit, ID: id, Spec: &req})
		if rec.prior != nil {
			out = append(out, record{Kind: recDone, ID: id, Result: rec.prior})
		}
	}
	s.report.CompactedRecords = len(out)
	return out
}

// readmit relaunches every unfinished job warm from its salvaged epochs.
// Runs after the compacted journal has reopened for appends, so a crash
// between compaction and here replays the same compacted state again.
func (s *Server) readmit() error {
	for _, id := range s.order {
		rec := s.jobs[id]
		if rec.prior != nil {
			continue
		}
		if err := s.launch(rec, rec.salvaged); err != nil {
			return fmt.Errorf("acrd: readmit job %d: %w", id, err)
		}
	}
	return nil
}

// auditJobDir reopens a job's checkpoint directory and sorts its resident
// epochs, ascending: salvaged holds those with all want replica-0 task
// checkpoints (ckptstore.CompleteEpochs), skipped every other resident
// epoch. The transient handle is closed again — launch opens its own.
func auditJobDir(dir string, want int) (salvaged, skipped []uint64, err error) {
	disk, err := ckptstore.NewDisk(dir, nil)
	if err != nil {
		return nil, nil, err
	}
	defer disk.Close()
	salvaged = ckptstore.CompleteEpochs(disk, 1, want)
	for epoch := range ckptstore.EpochInventory(disk) {
		if _, ok := slices.BinarySearch(salvaged, epoch); !ok {
			skipped = append(skipped, epoch)
		}
	}
	slices.Sort(skipped)
	return salvaged, skipped, nil
}
