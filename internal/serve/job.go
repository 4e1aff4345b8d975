package serve

import (
	"fmt"
	"log/slog"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// State is a job's position in its lifecycle. Transitions are strictly
// forward: queued -> running -> {done, failed, canceled}, with the
// shortcut queued -> canceled when a job is cancelled before a worker
// picks it up.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// terminal reports whether a job in this state will never change again.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is one job submission: which experiment to run and at what
// scale. It is the JSON body of POST /v1/jobs.
type Spec struct {
	// Experiment is a registry name (see `diskthru -list`).
	Experiment string `json:"experiment"`
	// Quick selects experiments.Quick scales; the default is the
	// committed experiments.Defaults scales.
	Quick bool `json:"quick,omitempty"`
	// Parallelism bounds the cells run concurrently inside the job
	// (Options.Parallelism); 0 means GOMAXPROCS.
	Parallelism int `json:"parallelism,omitempty"`
	// Seed offsets the generator seeds (Options.Seed).
	Seed int64 `json:"seed,omitempty"`
	// StreamStats switches the job's open-loop cells to the
	// constant-memory streaming latency sketch
	// (experiments.Options.StreamStats): exact count/mean/max,
	// percentiles accurate to one sketch bucket width.
	StreamStats bool `json:"stream_stats,omitempty"`
	// TimeoutSeconds caps the job's run time; 0 uses the server
	// default. The deadline is enforced through the same context path
	// DELETE uses, so an expired job stops mid-replay.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Format selects the result rendering: "text" (default, the CLI's
	// aligned table) or "csv".
	Format string `json:"format,omitempty"`
	// SynRequests, WebScale, ProxyScale and FileScale override the
	// corresponding experiment scales when positive, so a coordinator
	// can reproduce any local Options remotely. Zero keeps the
	// Quick/Defaults value.
	SynRequests int     `json:"syn_requests,omitempty"`
	WebScale    float64 `json:"web_scale,omitempty"`
	ProxyScale  float64 `json:"proxy_scale,omitempty"`
	FileScale   float64 `json:"file_scale,omitempty"`
	// Cell, when set, switches the job to cell granularity: instead of
	// the whole experiment, the daemon executes exactly one simulation
	// cell of its decomposition (experiments.RunCell) and the job result
	// is the cell's base64-encoded payload rather than a rendered table.
	// This is the unit the fleet coordinator (internal/fleet) dispatches;
	// Format is ignored for cell jobs.
	Cell *experiments.CellID `json:"cell,omitempty"`
	// IdempotencyKey, when non-empty, makes the submission at-most-once:
	// resubmitting the same key with the same spec returns the original
	// job instead of admitting a second one — across daemon restarts
	// when a state dir is configured. The same key with a different spec
	// is rejected. The Idempotency-Key request header, when present,
	// overrides this field.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// validate rejects specs the worker could never execute.
func (sp Spec) validate() error {
	if _, err := experiments.Lookup(sp.Experiment); err != nil {
		return err
	}
	switch sp.Format {
	case "", "text", "csv":
	default:
		return fmt.Errorf("serve: unknown format %q (want text or csv)", sp.Format)
	}
	if sp.TimeoutSeconds < 0 {
		return fmt.Errorf("serve: negative timeout %v", sp.TimeoutSeconds)
	}
	if sp.Parallelism < 0 {
		return fmt.Errorf("serve: negative parallelism %d", sp.Parallelism)
	}
	if sp.SynRequests < 0 || sp.WebScale < 0 || sp.ProxyScale < 0 || sp.FileScale < 0 {
		return fmt.Errorf("serve: negative scale override")
	}
	if sp.Cell != nil && sp.Cell.Index < 0 {
		return fmt.Errorf("serve: negative cell id %v", *sp.Cell)
	}
	if len(sp.IdempotencyKey) > 256 {
		return fmt.Errorf("serve: idempotency key longer than 256 bytes")
	}
	return nil
}

// options translates the spec into experiment options (without the
// context, which the worker owns).
func (sp Spec) options() experiments.Options {
	o := experiments.Defaults()
	if sp.Quick {
		o = experiments.Quick()
	}
	o.Seed = sp.Seed
	o.Parallelism = sp.Parallelism
	o.StreamStats = sp.StreamStats
	if sp.SynRequests > 0 {
		o.SynRequests = sp.SynRequests
	}
	if sp.WebScale > 0 {
		o.WebScale = sp.WebScale
	}
	if sp.ProxyScale > 0 {
		o.ProxyScale = sp.ProxyScale
	}
	if sp.FileScale > 0 {
		o.FileScale = sp.FileScale
	}
	return o
}

// job is the server's record of one submission. All fields besides id
// and spec are guarded by the server mutex.
type job struct {
	id   string
	spec Spec

	state    State
	err      string
	result   string
	canceled bool // cancellation requested (DELETE or forced drain)
	// drainCancel distinguishes forced-drain cancellations (not
	// journaled terminal; the job re-admits at next boot) from client
	// cancels (journaled; stays canceled).
	drainCancel bool
	// recovered marks jobs rebuilt from the journal at boot, with their
	// original submission times.
	recovered bool
	// checkpoint holds the journaled per-cell payloads a recovered job
	// resumes from; nil for fresh submissions. Read-only once set.
	checkpoint map[experiments.CellID][]byte
	// cancel interrupts the running replay; non-nil only while the job
	// is running.
	cancel func()
	// progress is the job's live tracker, created at submission and
	// handed to the runner; its counters are atomics, so view can read
	// it while the replay writes.
	progress *probe.Progress
	// maxFrac floors the reported completion fraction (under mu).
	// The cell plan is only known once the driver waits, and a job's
	// plan grows with every runner it creates, which can move the raw
	// fraction backwards; clients see it only ever rise.
	maxFrac float64
	// log carries the job id and experiment on every record.
	log *slog.Logger

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// IndexEntry is the compact JSON shape of one job in the GET /v1/jobs
// listing: enough to enumerate and triage work without dragging every
// result body over the wire (fetch GET /v1/jobs/{id} for the rest).
type IndexEntry struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Experiment string `json:"experiment"`
	// Cell is present for cell-granularity jobs (fleet shards).
	Cell        *experiments.CellID `json:"cell,omitempty"`
	SubmittedAt time.Time           `json:"submitted_at"`
	// Recovered marks jobs restored from the journal after a restart;
	// SubmittedAt is still the original submission time, not boot time.
	Recovered bool `json:"recovered,omitempty"`
}

// View is the JSON shape of a job returned by the API.
type View struct {
	ID     string `json:"id"`
	Spec   Spec   `json:"spec"`
	State  State  `json:"state"`
	Error  string `json:"error,omitempty"`
	Result string `json:"result,omitempty"`
	// Recovered marks jobs restored from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`

	// Progress is present once the job has started: live while it
	// runs, final once terminal.
	Progress *ProgressView `json:"progress,omitempty"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// ProgressView is the wire shape of a job's live progress. Percent is
// monotone for any single job — repeated polls never see it decrease —
// because the serving layer floors it at the highest fraction ever
// observed (drivers may grow their cell plan mid-run).
type ProgressView struct {
	// CellsDone / CellsTotal count completed simulation cells against
	// the plan known so far.
	CellsDone  int64 `json:"cells_done"`
	CellsTotal int64 `json:"cells_total"`
	// Events is the cumulative discrete-event count across all cells;
	// SimSeconds the cumulative virtual time simulated.
	Events     uint64  `json:"events"`
	SimSeconds float64 `json:"sim_seconds"`
	// Percent is completion in [0, 100].
	Percent float64 `json:"percent"`
	// ElapsedSeconds is wall-clock time since the job started running.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ETASeconds estimates the remaining wall-clock time by scaling
	// elapsed time with the completed fraction: -1 while unknown (no
	// cells finished yet), 0 once the job is terminal.
	ETASeconds float64 `json:"eta_seconds"`
}

// view snapshots the job; the caller must hold the server mutex.
func (j *job) view() View {
	v := View{
		ID:          j.id,
		Spec:        j.spec,
		State:       j.state,
		Error:       j.err,
		Result:      j.result,
		Recovered:   j.recovered,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	v.Progress = j.progressView()
	return v
}

// progressView assembles the live progress block; the caller must hold
// the server mutex (it advances the job's monotonic-fraction floor).
// Nil before the job starts running.
func (j *job) progressView() *ProgressView {
	if j.started.IsZero() {
		return nil
	}
	snap := j.progress.Snapshot()
	frac := snap.Fraction()
	if frac < j.maxFrac {
		frac = j.maxFrac
	}
	j.maxFrac = frac

	pv := &ProgressView{
		CellsDone:  snap.CellsDone,
		CellsTotal: snap.CellsTotal,
		Events:     snap.Events,
		SimSeconds: snap.SimSeconds,
	}
	switch {
	case j.state.terminal():
		if j.state == StateDone {
			frac = 1
		}
		pv.Percent = 100 * frac
		pv.ElapsedSeconds = j.finished.Sub(j.started).Seconds()
		pv.ETASeconds = 0
	default:
		pv.Percent = 100 * frac
		pv.ElapsedSeconds = time.Since(j.started).Seconds()
		if frac > 0 {
			pv.ETASeconds = pv.ElapsedSeconds * (1 - frac) / frac
		} else {
			pv.ETASeconds = -1
		}
	}
	return pv
}
