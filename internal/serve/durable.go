package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
	"diskthru/internal/probe"
)

// Durability: when Config.StateDir is set, the daemon appends one JSON
// record to an fsync'd journal (internal/journal) for every event that
// changes what a restart must reproduce — job admission, the
// queued->running transition, each completed simulation cell, and the
// terminal state. On boot, New replays the journal (tolerating a torn
// final record), restores terminal jobs verbatim — original id, spec,
// timestamps, result — and re-admits unfinished ones with the cells
// that already completed as a checkpoint, so recovery re-runs only the
// cells without a journaled payload and the recovered output is
// byte-identical to an uninterrupted run (cell payloads are gob,
// float64 round-trips bit-exact).
//
// Two deliberate asymmetries:
//
//   - Admission is durable before it is acknowledged: Submit journals
//     the submit record (and fsyncs) before returning 202, so a job the
//     client saw accepted is never lost. All other records are
//     best-effort — if the disk dies mid-job the job still finishes in
//     memory, it just may re-run after a crash.
//   - Forced-drain cancellations are NOT journaled as terminal: a
//     drained daemon restarts with those jobs re-admitted, which is the
//     point of draining with a state dir. Client cancels (DELETE) and
//     deadline failures ARE journaled — they were answered, so they
//     must not resurrect.

// journalFile is the journal's name inside StateDir.
const journalFile = "serve.journal"

// record is one journal entry. Type selects which fields are
// meaningful:
//
//	submit   Job, Spec, SubmittedAt
//	start    Job, At
//	cell     Job, Cell, Payload
//	done     Job, At, Result
//	failed   Job, At, Error
//	canceled Job, At, Error
type record struct {
	Type        string              `json:"type"`
	Job         string              `json:"job"`
	Spec        *Spec               `json:"spec,omitempty"`
	SubmittedAt time.Time           `json:"submitted_at,omitempty"`
	At          time.Time           `json:"at,omitempty"`
	Cell        *experiments.CellID `json:"cell,omitempty"`
	Payload     []byte              `json:"payload,omitempty"`
	Result      string              `json:"result,omitempty"`
	Error       string              `json:"error,omitempty"`
}

// appendRecord journals one record, logging (once per failure) when the
// journal is dead. The returned error matters only to admission, which
// must not acknowledge a job it cannot make durable.
func (s *Server) appendRecord(rec record) error {
	if s.jnl == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err == nil {
		err = s.jnl.Append(b)
	}
	if err != nil {
		s.log.Error("journal append failed; durability degraded",
			"type", rec.Type, "job", rec.Job, "error", err)
	}
	return err
}

// replayJob is the folded journal state of one job during recovery.
type replayJob struct {
	spec      Spec
	submitted time.Time
	started   time.Time
	state     State
	result    string
	errMsg    string
	finished  time.Time
	cells     map[experiments.CellID][]byte
	// foreign marks a spec carrying a field this version does not know:
	// another version may have computed its cells differently, so they
	// are not trusted as a checkpoint.
	foreign bool
}

// recover opens (creating if needed) the journal under dir, replays it
// into the job table, and returns the unfinished jobs to re-admit, in
// their original submission order. Terminal jobs are restored in place;
// both kinds carry the recovered flag and their original timestamps.
func (s *Server) recover(dir string) (pending []*job, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	byID := make(map[string]*replayJob)
	var order []string
	w, torn, err := journal.Open(filepath.Join(dir, journalFile), func(p []byte) error {
		var rec record
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("undecodable record: %w", err)
		}
		switch rec.Type {
		case "submit":
			if rec.Job == "" {
				return fmt.Errorf("submit record has no job id")
			}
			if byID[rec.Job] != nil {
				return fmt.Errorf("second submit record for %s", rec.Job)
			}
			if rec.Spec == nil {
				return fmt.Errorf("submit record for %s has no spec", rec.Job)
			}
			byID[rec.Job] = &replayJob{
				spec:      *rec.Spec,
				submitted: rec.SubmittedAt,
				state:     StateQueued,
				cells:     make(map[experiments.CellID][]byte),
				foreign:   !specFieldsKnown(p),
			}
			order = append(order, rec.Job)
		case "start":
			if r := byID[rec.Job]; r != nil {
				r.started = rec.At
				r.state = StateRunning
			}
		case "cell":
			if r := byID[rec.Job]; r != nil && rec.Cell != nil {
				r.cells[*rec.Cell] = rec.Payload
			}
		case "done":
			if r := byID[rec.Job]; r != nil {
				r.state, r.result, r.finished = StateDone, rec.Result, rec.At
			}
		case "failed", "canceled":
			if r := byID[rec.Job]; r != nil {
				r.state, r.errMsg, r.finished = State(rec.Type), rec.Error, rec.At
			}
		default:
			// A record type from another version — a future one, or the
			// intra-cell "snap" checkpoints older daemons wrote: harmless
			// to skip, fatal to guess at.
			s.log.Warn("skipping unknown journal record type", "type", rec.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.jnl = w
	if torn {
		s.log.Warn("journal had a torn final record; tail truncated")
	}

	for _, id := range order {
		r := byID[id]
		if n, err := strconv.Atoi(id[1:]); err == nil && n > s.seq {
			s.seq = n // new submissions continue the id sequence
		}
		j := &job{
			id:        id,
			spec:      r.spec,
			submitted: r.submitted,
			progress:  probe.NewProgress(),
			recovered: true,
		}
		j.log = s.log.With("job", id, "experiment", r.spec.Experiment)
		if r.state.terminal() {
			j.state = r.state
			j.result = r.result
			j.err = r.errMsg
			j.started = r.started
			j.finished = r.finished
			s.recoveredTerminal++
		} else {
			j.state = StateQueued
			if r.foreign {
				j.log.Warn("journaled spec has fields this version does not know; re-running the job from scratch",
					"cells_discarded", len(r.cells))
				r.cells = nil
			}
			j.checkpoint = r.cells
			s.recoveredResumed++
			pending = append(pending, j)
			j.log.Info("re-admitting unfinished job from journal",
				"cells_checkpointed", len(r.cells))
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if k := r.spec.IdempotencyKey; k != "" {
			s.idem[k] = id
		}
	}
	if len(order) > 0 {
		s.log.Info("journal replayed",
			"jobs_terminal", s.recoveredTerminal, "jobs_resumed", s.recoveredResumed)
	}
	return pending, nil
}

// specFieldsKnown reports whether a journaled submit record's spec
// decodes as strictly as a submission (decodeSpec): no field this
// version does not know. Decoding into Spec silently drops such a
// field, so without this check a job submitted with a since-removed
// switch would resume on cells that switch shaped.
func specFieldsKnown(rec []byte) bool {
	var raw struct {
		Spec json.RawMessage `json:"spec"`
	}
	if json.Unmarshal(rec, &raw) != nil {
		return false
	}
	_, err := decodeSpec(bytes.NewReader(raw.Spec))
	return err == nil
}

// Checkpoint is the runner's window into the journal: the cell payloads
// this job journaled before a crash, and the sink that journals each
// fresh one. A nil *Checkpoint is valid and inert, so runners need no
// journal-enabled branch at every call site.
type Checkpoint struct {
	s    *Server
	j    *job
	have map[experiments.CellID][]byte
}

// wrap puts the job's checkpoint in front of exec
// (experiments.Checkpointed); a nil Checkpoint returns exec unchanged.
func (ck *Checkpoint) wrap(exec experiments.CellExec) experiments.CellExec {
	if ck == nil {
		return exec
	}
	return experiments.Checkpointed(exec, ck.have, ck.sink)
}

// sink counts replayed cells and journals fresh ones. Journaling is
// best-effort: a dead journal costs future resumability, not this job.
func (ck *Checkpoint) sink(id experiments.CellID, payload []byte, replayed bool) {
	if replayed {
		ck.s.cellsReplayed.Add(1)
		return
	}
	if _, stale := ck.have[id]; stale {
		ck.j.log.Warn("journaled cell payload no longer decodes; re-ran it", "cell", id.String())
	}
	_ = ck.s.appendRecord(record{Type: "cell", Job: ck.j.id, Cell: &id, Payload: payload})
}
