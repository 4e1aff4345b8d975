// Package serve turns the experiment registry into a long-running job
// service: submissions enter a bounded FIFO admission queue, a fixed
// worker pool executes them through internal/experiments, and every job
// can be observed, cancelled, or bounded by a deadline while it runs.
// The HTTP surface lives in api.go; cmd/diskthrud wraps the package in
// a daemon with signal-driven graceful drain.
//
// Backpressure is explicit: when the queue is full, Submit fails with
// ErrQueueFull (HTTP 429 + Retry-After) instead of buffering without
// bound, so memory stays proportional to queue capacity no matter how
// many clients push. Cancellation is real, not cosmetic — it reaches
// the discrete-event engine through experiments.Options.Ctx, stopping a
// replay within a few thousand simulation events.
package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
	"diskthru/internal/metrics"
	"diskthru/internal/probe"
)

// Submission rejections. The HTTP layer maps these to 429, 503, 409
// and 500 respectively.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: server is draining, not admitting jobs")
	// ErrIdempotencyConflict reports a submission reusing an
	// idempotency key with a different spec than the original.
	ErrIdempotencyConflict = errors.New("serve: idempotency key already used with a different spec")
	// ErrJournal reports that the job journal could not make an
	// admission durable; the job was not accepted.
	ErrJournal = errors.New("serve: journal write failed")
)

// errJobTimeout marks deadline-expired jobs; their state is failed (the
// work was not completed and will not be), distinct from canceled
// (someone asked for it to stop).
var errJobTimeout = errors.New("job deadline exceeded")

// Config sizes the daemon.
type Config struct {
	// QueueCap bounds the admission queue (jobs accepted but not yet
	// running). Zero means 64.
	QueueCap int
	// Workers is the number of jobs executed concurrently. Zero means 1
	// — jobs parallelize internally via Spec.Parallelism, so one worker
	// is the sensible default on a machine this size.
	Workers int
	// DefaultTimeout applies to jobs that do not set TimeoutSeconds;
	// zero means no deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every job's deadline when positive; requests
	// beyond it are clamped, and jobs without any timeout get this one.
	MaxTimeout time.Duration
	// Runner executes one job, reporting into prog (never nil) as it
	// goes. ck carries the job's journaled checkpoint — nil when the
	// daemon has no state dir — and may be ignored by runners that do
	// not checkpoint. Nil means the real experiments-backed runner;
	// tests inject controllable stand-ins.
	Runner func(ctx context.Context, spec Spec, prog *probe.Progress, ck *Checkpoint) (string, error)
	// StateDir, when set, makes the daemon crash-safe: every job
	// admission, state transition and completed simulation cell is
	// appended to an fsync'd journal under this directory, and New
	// replays it at boot — terminal jobs reappear with their results,
	// unfinished jobs re-run from their last completed cell (see
	// durable.go). Empty keeps the daemon memory-only.
	StateDir string
	// Logger, when non-nil, receives one structured record per job
	// lifecycle transition, each carrying at least the job id. Nil
	// discards logs.
	Logger *slog.Logger
}

// Server is the job daemon: admission queue, worker pool, job table,
// and counters. Create with New, stop with Drain.
type Server struct {
	cfg   Config
	queue chan *job
	log   *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	seq      int
	draining bool
	// idem maps idempotency keys to job ids — populated by submissions
	// and journal recovery, so a retried POST is at-most-once even
	// across a crash.
	idem map[string]string

	// Lifecycle counters (under mu). running counts jobs between their
	// queued->running and running->terminal transitions. The lifecycle
	// counters are since-boot; recovered jobs count only in the
	// recovered* pair.
	submitted, rejectedFull, rejectedDraining int
	running, done, failed, canceled           int
	recoveredTerminal, recoveredResumed       int

	// jnl is the job journal (nil without StateDir); cellsReplayed
	// counts cells restored from it instead of re-run.
	jnl           *journal.Writer
	cellsReplayed atomic.Int64
	// cache holds the current warm scope's built workloads, shared by
	// every job (see experiments.ScopeCache).
	cache experiments.ScopeCache

	// Prometheus surface (see initMetrics). The registry reads the
	// counters above through func-backed series; these fields are the
	// registry-native extras.
	reg        *metrics.Registry
	jobDur     *metrics.HistogramVec
	queueWait  *metrics.Histogram
	workerBusy *metrics.Counter
	streams    *metrics.Gauge
	httpReqs   *metrics.CounterVec
	httpDur    *metrics.HistogramVec

	wg sync.WaitGroup
}

// New builds the server and starts its workers. With Config.StateDir
// set, it first replays the job journal — the only error path — and
// re-admits every unfinished job before admitting new ones.
func New(cfg Config) (*Server, error) {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:  cfg,
		log:  logger,
		jobs: make(map[string]*job),
		idem: make(map[string]string),
	}
	if s.cfg.Runner == nil {
		s.cfg.Runner = s.runSpec
	}
	var pending []*job
	if cfg.StateDir != "" {
		var err error
		if pending, err = s.recover(cfg.StateDir); err != nil {
			return nil, fmt.Errorf("serve: recovering state from %s: %w", cfg.StateDir, err)
		}
	}
	// The channel may need to hold more than QueueCap recovered jobs;
	// admission still enforces QueueCap (Submit checks depth, not
	// channel capacity).
	qcap := cfg.QueueCap
	if len(pending) > qcap {
		qcap = len(pending)
	}
	s.queue = make(chan *job, qcap)
	for _, j := range pending {
		s.queue <- j
	}
	s.initMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// runSpec is the production runner: the same registry, options and
// rendering the CLI uses, so a job's result is byte-identical to
// `diskthru -experiment <name>` at the same scale and seed. The
// experiment is driven cell by cell through experiments.RunWithCellExec;
// with a checkpoint (journal-enabled daemon) completed cells persist as
// they finish and journaled ones are injected instead of re-run. Every
// job builds its workloads through the daemon's scope cache.
func (s *Server) runSpec(ctx context.Context, sp Spec, prog *probe.Progress, ck *Checkpoint) (string, error) {
	o := sp.options()
	o.Ctx = ctx
	o.Progress = prog
	o.WorkloadCache = &s.cache
	if sp.Cell != nil {
		return runCellSpec(sp, o, ck)
	}
	t, err := experiments.RunWithCellExec(sp.Experiment, o, ck.wrap(experiments.LocalExec))
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if sp.Format == "csv" {
		if err := t.CSV(&sb); err != nil {
			return "", err
		}
	} else {
		t.Format(&sb)
	}
	return sb.String(), nil
}

// runCellSpec executes one cell-granularity job. The result is the
// single cell's encoded slot, base64 so it survives the JSON job view;
// the coordinator that submitted it decodes and injects it into its own
// driver invocation — it is not human-readable on purpose.
//
// The cell's payload comes from the journal checkpoint when this very
// job completed the cell before a crash, and from a fresh simulation
// otherwise.
func runCellSpec(sp Spec, o experiments.Options, ck *Checkpoint) (string, error) {
	payload, err := experiments.RunCellExec(sp.Experiment, o, *sp.Cell, ck.wrap(experiments.LocalExec))
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(payload), nil
}

// Submit validates and enqueues one job, returning its queued view.
// ErrQueueFull and ErrDraining report backpressure; other errors are
// bad specs. A spec reusing a known idempotency key returns the
// original job's view (use SubmitIdempotent to distinguish a replay).
func (s *Server) Submit(spec Spec) (View, error) {
	v, _, err := s.SubmitIdempotent(spec)
	return v, err
}

// SubmitIdempotent is Submit plus the replay signal: existing is true
// when spec's idempotency key matched a previous submission and v is
// that original job, making client retries at-most-once — across
// daemon restarts when a state dir is configured, since keys are
// journaled with the submit record. The same key with a different spec
// fails with ErrIdempotencyConflict.
func (s *Server) SubmitIdempotent(spec Spec) (v View, existing bool, err error) {
	if err := spec.validate(); err != nil {
		return View{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key := spec.IdempotencyKey; key != "" {
		if id, ok := s.idem[key]; ok {
			prev := s.jobs[id]
			if !specEqual(prev.spec, spec) {
				return View{}, false, fmt.Errorf("%w (key %q is %s)", ErrIdempotencyConflict, key, id)
			}
			prev.log.Info("idempotent replay of submission", "key", key)
			return prev.view(), true, nil
		}
	}
	if s.draining {
		s.rejectedDraining++
		return View{}, false, ErrDraining
	}
	// Admission capacity is checked against the configured cap, not the
	// channel's (recovery may have grown the channel), and before the
	// journal write so a rejected job is never journaled. Only workers
	// drain the queue, so depth cannot rise between here and the send.
	if len(s.queue) >= s.cfg.QueueCap {
		s.rejectedFull++
		return View{}, false, ErrQueueFull
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%06d", s.seq),
		spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		progress:  probe.NewProgress(),
	}
	j.log = s.log.With("job", j.id, "experiment", spec.Experiment)
	if err := s.appendRecord(record{
		Type: "submit", Job: j.id, Spec: &j.spec, SubmittedAt: j.submitted,
	}); err != nil {
		// Not durable means not accepted: the client will retry and
		// must not end up with two jobs.
		s.seq--
		return View{}, false, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	// The queue send stays under mu: admission and Drain's close of the
	// channel serialize on the same lock, so a send can never hit a
	// closed queue, and the depth check above keeps it from blocking.
	s.queue <- j
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.submitted++
	if key := spec.IdempotencyKey; key != "" {
		s.idem[key] = j.id
	}
	j.log.Info("job queued", "queue_depth", len(s.queue))
	return j.view(), false, nil
}

// specEqual compares two specs by their canonical JSON — the identity
// idempotency keys are scoped to.
func specEqual(a, b Spec) bool {
	ja, erra := json.Marshal(a)
	jb, errb := json.Marshal(b)
	return erra == nil && errb == nil && string(ja) == string(jb)
}

// Get returns one job's view.
func (s *Server) Get(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// List returns every job in submission order.
func (s *Server) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Index returns compact job summaries in submission order — the
// GET /v1/jobs listing. A positive limit keeps only the most recently
// submitted jobs (the tail), which is what an operator watching a busy
// daemon and a coordinator enumerating outstanding work both want;
// limit <= 0 returns everything. A non-empty state keeps only jobs
// currently in that state; the limit applies after the filter, so
// `?state=failed&limit=5` is the five newest failures, not the failures
// among the five newest jobs.
func (s *Server) Index(limit int, state State) []IndexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	order := s.order
	if state != "" {
		filtered := make([]string, 0, len(order))
		for _, id := range order {
			if s.jobs[id].state == state {
				filtered = append(filtered, id)
			}
		}
		order = filtered
	}
	if limit > 0 && limit < len(order) {
		order = order[len(order)-limit:]
	}
	out := make([]IndexEntry, 0, len(order))
	for _, id := range order {
		j := s.jobs[id]
		out = append(out, IndexEntry{
			ID:          j.id,
			State:       j.state,
			Experiment:  j.spec.Experiment,
			Cell:        j.spec.Cell,
			SubmittedAt: j.submitted,
			Recovered:   j.recovered,
		})
	}
	return out
}

// Cancel requests a job stop. Queued jobs are marked canceled
// immediately (the worker discards them on dequeue); running jobs have
// their context cancelled and reach the canceled state when the replay
// notices, typically within milliseconds. Cancelling a terminal job is
// a no-op. The second return is false when the id is unknown.
func (s *Server) Cancel(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	s.cancelLocked(j, false)
	return j.view(), true
}

// cancelLocked implements Cancel under mu. drain marks forced-drain
// cancellations, which are deliberately NOT journaled as terminal: on a
// journal-enabled daemon a drained job is unfinished-but-durable and
// re-admits at the next boot, whereas a client cancel was answered and
// must stay canceled across restarts.
func (s *Server) cancelLocked(j *job, drain bool) {
	if j.state.terminal() || j.canceled {
		return
	}
	j.canceled = true
	j.drainCancel = drain
	switch j.state {
	case StateQueued:
		// Resolved lazily by the worker that dequeues it; mark it
		// terminal now so clients see the final state immediately.
		j.state = StateCanceled
		j.finished = time.Now()
		j.err = "canceled while queued"
		s.canceled++
		if !drain {
			_ = s.appendRecord(record{Type: "canceled", Job: j.id, At: j.finished, Error: j.err})
		}
		j.log.Info("job canceled while queued")
	case StateRunning:
		j.cancel()
		j.log.Info("job cancel requested mid-run")
	}
}

// Draining reports whether admission is closed.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain closes admission and waits for the workers to finish every
// already-accepted job (queued and running) — the SIGTERM path. If ctx
// fires first, all remaining jobs are cancelled and Drain waits for the
// workers to observe that, returning ctx's error. Drain is idempotent;
// concurrent calls all block until the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers drain the buffered jobs, then exit
		s.log.Info("draining: admission closed", "pending", len(s.queue)+s.running)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Forced drain: cancel everything still alive, then wait for the
	// workers, which is now prompt — replays notice within a few
	// thousand events and queued jobs resolve on dequeue. With a
	// journal these cancellations are not terminal records, so the
	// jobs re-admit on the next boot.
	s.mu.Lock()
	for _, id := range s.order {
		s.cancelLocked(s.jobs[id], true)
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// worker executes queued jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

// execute runs one dequeued job through its whole lifecycle.
func (s *Server) execute(j *job) {
	s.mu.Lock()
	if j.canceled {
		// Cancelled while queued; Cancel already made it terminal.
		s.mu.Unlock()
		return
	}
	ctx, cancel, timeout := s.jobContext(j.spec)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	s.running++
	s.mu.Unlock()
	_ = s.appendRecord(record{Type: "start", Job: j.id, At: j.started})
	s.queueWait.Observe(j.started.Sub(j.submitted).Seconds())
	j.log.Info("job running", "timeout", timeout.String(),
		"queue_wait_seconds", j.started.Sub(j.submitted).Seconds())

	var ck *Checkpoint
	if s.jnl != nil {
		ck = &Checkpoint{s: s, j: j, have: j.checkpoint}
	}
	result, err := s.runJob(ctx, j, ck)
	if err == nil && ctx.Err() == context.DeadlineExceeded {
		// The runner finished its current cell after the deadline but
		// before the poll; the job still missed its deadline.
		err = ctx.Err()
	}
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil
	j.finished = time.Now()
	s.running--
	wall := j.finished.Sub(j.started).Seconds()
	s.workerBusy.Add(wall)
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		s.done++
		s.jobDur.With(j.spec.Experiment).Observe(wall)
		_ = s.appendRecord(record{Type: "done", Job: j.id, At: j.finished, Result: result})
		j.log.Info("job done", "seconds", wall)
	case j.canceled && !errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err.Error()
		s.canceled++
		if !j.drainCancel {
			_ = s.appendRecord(record{Type: "canceled", Job: j.id, At: j.finished, Error: j.err})
		}
		j.log.Info("job canceled mid-run", "seconds", wall)
	default:
		j.state = StateFailed
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w after %v: %v", errJobTimeout, timeout, err)
		}
		j.err = err.Error()
		s.failed++
		// Deadline expiry journals as failed too: the job was answered
		// ("missed its deadline"), so a restart must not resurrect it.
		_ = s.appendRecord(record{Type: "failed", Job: j.id, At: j.finished, Error: j.err})
		j.log.Error("job failed", "error", err.Error(), "seconds", wall)
	}
}

// runJob invokes the runner with a panic fence: a driver that panics
// marks its job failed instead of unwinding through the worker and
// killing the daemon. The stack goes to the log, the panic value to the
// job's error.
func (s *Server) runJob(ctx context.Context, j *job, ck *Checkpoint) (result string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v", r)
			j.log.Error("job panic", "panic", fmt.Sprint(r), "stack", string(debug.Stack()))
		}
	}()
	return s.cfg.Runner(ctx, j.spec, j.progress, ck)
}

// jobContext builds the per-job context: cancellable always, with a
// deadline when the spec or server configuration requests one.
func (s *Server) jobContext(sp Spec) (context.Context, context.CancelFunc, time.Duration) {
	timeout := time.Duration(sp.TimeoutSeconds * float64(time.Second))
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		return ctx, cancel, timeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	return ctx, cancel, 0
}
