// The acrd control-plane journal: an append-only JSONL file under the
// daemon's data directory recording what the daemon must survive a kill -9
// to remember and cannot read back from anywhere else — job submissions
// and final results. Each record is one JSON object on one line, fsynced
// before the append returns, so a record's presence implies it reached
// stable storage before anything that observed it.
//
// Which epochs a job has durably flushed is deliberately not journaled:
// the job's checkpoint directory is the only record of that, and resume
// audits it directly (see resume.go).
package acrd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"acr/internal/fleet"
)

// recordKind discriminates journal records.
type recordKind string

const (
	// recSubmit: a job was accepted; carries the external spec and the
	// daemon-assigned id. Exactly one per job, ever.
	recSubmit recordKind = "submit"
	// recDone: the job finished; carries the full fleet result. Jobs
	// settled by a graceful daemon shutdown are deliberately NOT journaled
	// done — they are unfinished work the next life must readmit.
	recDone recordKind = "done"
)

// record is the union journal line. Kind selects which fields are live.
// Journals written before flush claims were retired also hold "flush" and
// "resume" lines; they parse (their extra fields are ignored), replay
// skips them, and the first compaction drops them.
type record struct {
	Kind recordKind `json:"kind"`
	ID   int        `json:"id"`

	Spec   *SubmitRequest   `json:"spec,omitempty"`   // submit
	Result *fleet.JobResult `json:"result,omitempty"` // done
}

// journal is the append handle. Appends are serialized and fsynced.
type journal struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("acrd: open journal: %w", err)
	}
	return &journal{f: f}, nil
}

// append writes one record line and fsyncs it. Appends after Close are
// dropped with an error — they race the daemon teardown and lose.
func (j *journal) append(r record) error {
	blob, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("acrd: journal marshal: %w", err)
	}
	blob = append(blob, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("acrd: journal closed")
	}
	if _, err := j.f.Write(blob); err != nil {
		return fmt.Errorf("acrd: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("acrd: journal sync: %w", err)
	}
	return nil
}

func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}

// rewriteJournal atomically replaces the journal at path with exactly recs
// (the compacted equivalent of its replayed state). The rewrite goes
// through a temp file in the same directory — write, fsync, rename, fsync
// the directory — so a crash at any instant leaves either the old journal
// or the complete new one, never a truncated hybrid. Callers must hold no
// open append handle on path.
func rewriteJournal(path string, recs []record) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("acrd: compact journal: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, r := range recs {
		blob, err := json.Marshal(r)
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("acrd: compact journal marshal: %w", err)
		}
		blob = append(blob, '\n')
		if _, err := w.Write(blob); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("acrd: compact journal write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("acrd: compact journal flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("acrd: compact journal sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("acrd: compact journal close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("acrd: compact journal rename: %w", err)
	}
	// Fsync the directory so the rename itself is durable.
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// readJournal loads every parseable record from path. A process killed
// mid-append leaves a torn final line; torn or otherwise unparseable lines
// are counted and skipped, never fatal. Lines have no length cap: a done
// record carries the job's whole stats, per-round series included. A
// missing file is an empty journal.
func readJournal(path string) (recs []record, torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("acrd: read journal: %w", err)
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := rd.ReadBytes('\n')
		if line = bytes.TrimSpace(line); len(line) > 0 {
			var r record
			if json.Unmarshal(line, &r) != nil {
				torn++
			} else {
				recs = append(recs, r)
			}
		}
		if err == io.EOF {
			return recs, torn, nil
		}
		if err != nil {
			return recs, torn, fmt.Errorf("acrd: read journal: %w", err)
		}
	}
}
