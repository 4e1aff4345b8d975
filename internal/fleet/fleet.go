// Package fleet shards experiment sweeps across many diskthrud daemons.
//
// A Coordinator takes any registered experiment, decomposes it into the
// same independent simulation cells the parallel runner uses
// (experiments.RunWithCellExec), and dispatches each cell as a
// cell-granularity job over the daemons' existing /v1/jobs HTTP API.
// The design goals, in order:
//
//   - Byte-identical merge. The driver runs on the coordinator; only
//     cell execution is remote. Each daemon re-derives the addressed
//     cell from (experiment, options, CellID) — the same deterministic
//     decomposition — and returns its result slot gob-encoded, which
//     round-trips float64s bit-exact. Presentation order, row assembly
//     and rendering never leave the coordinator, so the merged table is
//     byte-identical to a single-node `diskthru -j 1` run regardless of
//     fleet size, stealing, or mid-sweep failures.
//
//   - Work stealing under bounded windows. Every cell has a home daemon
//     (a deterministic hash of its CellID), but any daemon with a free
//     in-flight slot may claim it; per-daemon windows bound the number
//     of outstanding jobs so a slow daemon backlogs nothing. A fast
//     daemon that drains its window simply steals the next pending
//     cell from a busy home — the classic stealing argument, expressed
//     through slot acquisition rather than per-daemon deques.
//
//   - Failover, not babysitting. Liveness comes from /healthz probes
//     plus dispatch-path evidence (connection errors mark a daemon down
//     immediately; a draining daemon stops receiving work before its
//     SIGTERM completes). A cell whose daemon dies or whose job is
//     cancelled by a drain is requeued to a survivor under capped
//     exponential backoff with full jitter. A cell's attempts run one
//     after another, and each abandoned attempt is cancelled before the
//     next starts, so at most one result per cell is ever injected.
//     Every cell is remotable. A cell that exhausts its remote attempts
//     (with zero healthy daemons, say) is executed on the coordinator
//     rather than failing the sweep, and only those fallbacks count in
//     fleet_cells_local_total (disable with
//     Config.DisableLocalFallback).
//
// Observability follows internal/serve: counters and per-daemon gauges
// in an internal/metrics registry (cells dispatched/stolen/requeued,
// in-flight and liveness per daemon) and structured slog records for
// every dispatch decision that changes state.
package fleet

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
	"diskthru/internal/metrics"
	"diskthru/internal/serve"
)

// Config sizes a Coordinator.
type Config struct {
	// Endpoints are the daemons' base URLs (http://host:port). At least
	// one is required; a bare host:port gets the http scheme.
	Endpoints []string
	// Window bounds the jobs in flight per daemon. Zero means 2: enough
	// to hide submit/poll latency behind execution without queueing a
	// sweep's tail onto a daemon that may die.
	Window int
	// MaxAttempts is how many remote dispatches one cell gets before
	// the coordinator gives up on the fleet for it. Zero means 8.
	MaxAttempts int
	// DisableLocalFallback fails the sweep when a cell exhausts
	// MaxAttempts instead of executing it on the coordinator.
	DisableLocalFallback bool
	// ProbeInterval is the /healthz polling period. Zero means 250ms.
	ProbeInterval time.Duration
	// PollInterval is the job-status polling period. Zero means 25ms.
	PollInterval time.Duration
	// CellTimeout bounds one remote attempt (submit through result).
	// Zero means no bound: daemon death is detected by connection
	// errors, not timers. Set it when daemons may wedge while staying
	// reachable.
	CellTimeout time.Duration
	// Backoff shapes the retry delays (zero value = 100ms..5s, jittered).
	Backoff Backoff
	// StateDir, when set, journals every completed cell payload to an
	// fsync'd log under this directory so a killed coordinator can
	// resume a sweep. Each Run starts a fresh journal unless Resume is
	// set.
	StateDir string
	// Resume makes Run reload the journal in StateDir first: cells with
	// a journaled payload are injected without dispatch, the rest run
	// normally. The journal carries a fingerprint of (experiment,
	// options); Run fails closed on a mismatch rather than merging
	// cells from a different sweep. Requires StateDir.
	Resume bool
	// Logger receives structured dispatch records; nil discards.
	Logger *slog.Logger
	// Registry receives the coordinator's metrics; nil creates a
	// private one (exposed via Coordinator.Registry).
	Registry *metrics.Registry
	// Client performs all HTTP; nil uses a plain &http.Client{}.
	Client *http.Client
}

// daemon is the coordinator's view of one endpoint. All mutable state
// sits behind mu: probe goroutine, dispatch workers and gauge reads
// touch it concurrently.
type daemon struct {
	base string
	name string // endpoint label for logs and metrics

	mu        sync.Mutex
	up        bool
	draining  bool
	inflight  int
	notBefore time.Time // backpressure gate: no submissions before this
}

// eligible reports whether the daemon can take one more cell now, and
// claims a slot when it can.
func (d *daemon) tryAcquire(window int, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.up || d.draining || d.inflight >= window || now.Before(d.notBefore) {
		return false
	}
	d.inflight++
	return true
}

func (d *daemon) release() {
	d.mu.Lock()
	d.inflight--
	d.mu.Unlock()
}

// markDown records dispatch-path evidence of death; the prober revives
// the daemon when /healthz answers again.
func (d *daemon) markDown() {
	d.mu.Lock()
	d.up = false
	d.mu.Unlock()
}

// gate delays further submissions to this daemon — the 429 Retry-After
// path.
func (d *daemon) gate(until time.Time) {
	d.mu.Lock()
	if until.After(d.notBefore) {
		d.notBefore = until
	}
	d.mu.Unlock()
}

// setHealth applies one probe result.
func (d *daemon) setHealth(up, draining bool) {
	d.mu.Lock()
	d.up = up
	d.draining = draining
	d.mu.Unlock()
}

func (d *daemon) snapshot() (up, draining bool, inflight int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.up, d.draining, d.inflight
}

// Coordinator dispatches experiment cells across a daemon fleet. Create
// with New; one Coordinator runs one sweep at a time (Run is not
// reentrant because per-sweep state — the current spec and journal —
// lives on the struct).
type Coordinator struct {
	cfg     Config
	daemons []*daemon
	client  *http.Client
	log     *slog.Logger
	reg     *metrics.Registry

	dispatched *metrics.CounterVec // admitted submissions, by daemon
	stolen     *metrics.Counter
	requeued   *metrics.Counter
	completed  *metrics.Counter
	local      *metrics.Counter
	resumedC   *metrics.Counter

	seq atomic.Uint64 // round-robin cursor for steal-scan starts

	// Per-sweep fields, set by Run.
	runMu      sync.Mutex
	experiment string
	opts       experiments.Options
	// jnl and resumed implement crash-safe sweeps (Config.StateDir):
	// resumed holds the payloads reloaded from the journal, keyed by
	// cell — the sweep's checkpoint; jnl receives every fresh payload.
	// Both are replaced at the start of each Run and resumed is
	// read-only during the sweep.
	jnl     *journal.Writer
	resumed map[experiments.CellID][]byte
	// nonce makes this Run's idempotency keys distinct from any earlier
	// process's, so a daemon that survived a coordinator crash does not
	// replay a stale job at a retried key.
	nonce string
}

// New validates the config and builds the coordinator (no I/O yet; the
// health prober starts with Run).
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, fmt.Errorf("fleet: no daemon endpoints")
	}
	if cfg.Resume && cfg.StateDir == "" {
		return nil, fmt.Errorf("fleet: Resume requires StateDir")
	}
	if cfg.Window <= 0 {
		cfg.Window = 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Coordinator{
		cfg:    cfg,
		client: client,
		log:    logger,
		reg:    reg,
	}
	seen := make(map[string]bool)
	for _, ep := range cfg.Endpoints {
		base := strings.TrimRight(ep, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		if base == "http://" || seen[base] {
			return nil, fmt.Errorf("fleet: empty or duplicate endpoint %q", ep)
		}
		seen[base] = true
		c.daemons = append(c.daemons, &daemon{base: base, name: strings.TrimPrefix(strings.TrimPrefix(base, "https://"), "http://")})
	}
	c.initMetrics()
	return c, nil
}

// Registry exposes the coordinator's metrics for scraping.
func (c *Coordinator) Registry() *metrics.Registry { return c.reg }

func (c *Coordinator) initMetrics() {
	c.dispatched = c.reg.NewCounterVec("fleet_cells_dispatched_total",
		"Cell jobs admitted by a daemon (one per 202, retries included).", "daemon")
	c.stolen = c.reg.NewCounter("fleet_cells_stolen_total",
		"Cells executed by a daemon other than their deterministic home.")
	c.requeued = c.reg.NewCounter("fleet_cells_requeued_total",
		"Cell dispatches abandoned (daemon death, drain, backpressure, job cancellation) and retried elsewhere.")
	c.completed = c.reg.NewCounter("fleet_cells_completed_total",
		"Cells whose remote result was injected into the sweep.")
	c.local = c.reg.NewCounter("fleet_cells_local_total",
		"Cells executed on the coordinator after exhausting their remote attempts.")
	c.resumedC = c.reg.NewCounter("fleet_cells_resumed_total",
		"Cells injected from the coordinator's journal instead of dispatched (crash-resume path).")
	for _, d := range c.daemons {
		d := d
		c.reg.NewGaugeFunc("fleet_daemon_up",
			"1 when the daemon's last probe or dispatch succeeded.",
			func() float64 {
				up, _, _ := d.snapshot()
				if up {
					return 1
				}
				return 0
			}, "daemon", d.name)
		c.reg.NewGaugeFunc("fleet_daemon_draining",
			"1 while the daemon reports draining on /healthz.",
			func() float64 {
				_, draining, _ := d.snapshot()
				if draining {
					return 1
				}
				return 0
			}, "daemon", d.name)
		c.reg.NewGaugeFunc("fleet_daemon_inflight",
			"Cell jobs currently dispatched to the daemon and not yet resolved.",
			func() float64 {
				_, _, inflight := d.snapshot()
				return float64(inflight)
			}, "daemon", d.name)
	}
}

// Run executes one experiment across the fleet and returns its table,
// byte-identical to a local experiments.Run with the same options at
// -j 1. o.Parallelism bounds concurrently outstanding cells; zero
// defaults to daemons x window so every slot in the fleet can be kept
// busy. The health prober runs for the duration of the call.
func (c *Coordinator) Run(ctx context.Context, experiment string, o experiments.Options) (*experiments.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if o.Parallelism <= 0 {
		o.Parallelism = len(c.daemons) * c.cfg.Window
	}
	o.Ctx = ctx
	c.experiment = experiment
	c.opts = o
	c.nonce = fmt.Sprintf("%d", time.Now().UnixNano())
	c.resumed = nil
	c.jnl = nil
	if c.cfg.StateDir != "" {
		if err := c.openSweepJournal(); err != nil {
			return nil, err
		}
		defer func() {
			_ = c.jnl.Close()
			c.jnl = nil
		}()
	}

	pctx, cancel := context.WithCancel(ctx)
	c.probeAll() // synchronous first sweep: dispatch starts informed
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.probeLoop(pctx)
	}()
	defer wg.Wait()
	defer cancel()
	c.log.Info("sweep starting", "experiment", experiment,
		"daemons", len(c.daemons), "window", c.cfg.Window, "parallelism", o.Parallelism)
	t, err := experiments.RunWithCellExec(experiment, o,
		experiments.Checkpointed(c.execCell, c.resumed, c.checkpointed))
	if err != nil {
		return nil, err
	}
	c.log.Info("sweep done", "experiment", experiment,
		"completed", c.completed.Value(), "stolen", c.stolen.Value(),
		"requeued", c.requeued.Value(), "local", c.local.Value(),
		"resumed", c.resumedC.Value())
	return t, nil
}

// sweepRecord is one entry of the coordinator's journal: a "sweep"
// header fingerprinting the run, or one "cell" payload.
type sweepRecord struct {
	Type       string `json:"type"`
	Experiment string `json:"experiment,omitempty"`
	// Spec is the header's marshaled base spec, kept as the exact bytes
	// journaled. Comparing bytes, not a decoded serve.Spec (which drops
	// fields this version does not know), makes a journal written by a
	// version with another spec shape fail closed.
	Spec    json.RawMessage     `json:"spec,omitempty"`
	Cell    *experiments.CellID `json:"cell,omitempty"`
	Payload []byte              `json:"payload,omitempty"`
}

// baseSpec is the cell submission without the cell — the part shared by
// every dispatch of this sweep, and therefore the sweep's fingerprint:
// two sweeps with equal base specs and experiment produce bit-identical
// cell payloads, so their journals are interchangeable.
func (c *Coordinator) baseSpec() serve.Spec {
	sp := c.spec(experiments.CellID{})
	sp.Cell = nil
	return sp
}

// openSweepJournal prepares StateDir for this sweep. Without Resume any
// previous journal is discarded and a fresh one started with this
// sweep's fingerprint header. With Resume the journal is replayed
// first: a fingerprint mismatch fails the run (merging another sweep's
// cells would silently corrupt the table), a matching one loads every
// journaled payload into the sweep's checkpoint. A torn final record
// (the coordinator died mid-append) is truncated away by the journal
// layer.
func (c *Coordinator) openSweepJournal() error {
	if err := os.MkdirAll(c.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("fleet: state dir: %w", err)
	}
	path := filepath.Join(c.cfg.StateDir, "fleet.journal")
	if !c.cfg.Resume {
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("fleet: resetting journal: %w", err)
		}
	}
	base, err := json.Marshal(c.baseSpec())
	if err != nil {
		return fmt.Errorf("fleet: fingerprinting the sweep: %w", err)
	}
	var (
		headerExp  string
		headerSpec json.RawMessage
		resumed    = make(map[experiments.CellID][]byte)
	)
	w, torn, err := journal.Open(path, func(p []byte) error {
		var rec sweepRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			return fmt.Errorf("undecodable journal record: %w", err)
		}
		switch rec.Type {
		case "sweep":
			headerExp, headerSpec = rec.Experiment, rec.Spec
		case "cell":
			if rec.Cell != nil {
				resumed[*rec.Cell] = rec.Payload
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fleet: opening journal: %w", err)
	}
	if torn {
		c.log.Warn("journal had a torn final record; tail truncated")
	}
	if headerExp != "" {
		if headerExp != c.experiment || !bytes.Equal(base, headerSpec) {
			_ = w.Close()
			return fmt.Errorf("fleet: journal in %s fingerprints a different sweep (%s) than requested (%s); not resuming",
				c.cfg.StateDir, headerExp, c.experiment)
		}
		c.resumed = resumed
		c.log.Info("resuming sweep from journal", "cells_journaled", len(resumed))
	} else {
		// Empty journal (fresh run, or resume of a sweep that never got
		// its header out): stamp the fingerprint before any cell.
		b, err := json.Marshal(sweepRecord{Type: "sweep", Experiment: c.experiment, Spec: base})
		if err == nil {
			err = w.Append(b)
		}
		if err != nil {
			_ = w.Close()
			return fmt.Errorf("fleet: writing journal header: %w", err)
		}
	}
	c.jnl = w
	return nil
}

// checkpointed is the sink of the sweep's checkpoint: it counts cells
// injected from the journal and best-effort journals every fresh
// payload, remote or local-fallback. Losing the journal costs
// resumability, not this sweep.
func (c *Coordinator) checkpointed(id experiments.CellID, payload []byte, replayed bool) {
	if replayed {
		c.resumedC.Inc()
		return
	}
	if _, stale := c.resumed[id]; stale {
		c.log.Warn("journaled cell payload no longer decodes; re-dispatched it", "cell", id.String())
	}
	if c.jnl == nil {
		return
	}
	b, err := json.Marshal(sweepRecord{Type: "cell", Cell: &id, Payload: payload})
	if err == nil {
		err = c.jnl.Append(b)
	}
	if err != nil {
		c.log.Error("journal append failed; sweep is no longer resumable",
			"cell", id.String(), "error", err.Error())
	}
}

// home deterministically assigns a cell's preferred daemon.
func (c *Coordinator) home(id experiments.CellID) int {
	return id.Index % len(c.daemons)
}

// acquire claims an in-flight slot for the cell, preferring its home
// daemon and stealing from any other live one otherwise. It waits up to
// patience for a slot, polling: slot churn is tens of milliseconds and
// contention is bounded by the runner's parallelism, so a condition
// variable would buy complexity, not throughput. ok is false when
// nothing was claimable in time.
func (c *Coordinator) acquire(ctx context.Context, id experiments.CellID, patience time.Duration) (d *daemon, stole bool, ok bool) {
	homeIdx := c.home(id)
	deadline := time.Now().Add(patience)
	for {
		now := time.Now()
		if c.daemons[homeIdx].tryAcquire(c.cfg.Window, now) {
			return c.daemons[homeIdx], false, true
		}
		// Steal scan, rotated so concurrent thieves spread out instead
		// of piling onto the lowest-numbered survivor.
		start := c.seq.Add(1) - 1
		n := len(c.daemons)
		for i := 0; i < n; i++ {
			j := int((start + uint64(i)) % uint64(n))
			if j == homeIdx {
				continue
			}
			if c.daemons[j].tryAcquire(c.cfg.Window, now) {
				return c.daemons[j], true, true
			}
		}
		if now.After(deadline) || ctx.Err() != nil {
			return nil, false, false
		}
		select {
		case <-ctx.Done():
			return nil, false, false
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// execCell is the dispatch loop for one cell, behind the sweep's
// checkpoint: the cell is dispatched with stealing, backpressure and
// failover as described in the package comment. Attempts run one after
// another and each abandoned one is cancelled first, so only one result
// is injected.
func (c *Coordinator) execCell(id experiments.CellID, run func() ([]byte, error), inject func([]byte) error) error {
	ctx := c.opts.Ctx
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		d, stole, ok := c.acquire(ctx, id, c.cfg.Backoff.Delay(attempt, 0))
		if !ok {
			// No daemon had capacity (all down, draining, gated or
			// full): that wait was the backoff; try again.
			continue
		}
		if stole {
			c.stolen.Inc()
		}
		payload, err := c.runCellJob(ctx, d, id, attempt)
		d.release()
		if err == nil {
			if err := inject(payload); err != nil {
				return err // corrupt payload: a bug, not a retry case
			}
			c.completed.Inc()
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return fmt.Errorf("fleet: cell %s on %s: %w", id, d.name, perm.err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		c.requeued.Inc()
		retryAfter := retryAfterOf(err)
		c.log.Warn("cell requeued", "cell", id.String(), "daemon", d.name,
			"attempt", attempt, "error", err.Error())
		if err := c.cfg.Backoff.Sleep(ctx, attempt, retryAfter); err != nil {
			return err
		}
	}
	if c.cfg.DisableLocalFallback {
		return fmt.Errorf("fleet: cell %s: %d remote attempts failed and local fallback is disabled",
			id, c.cfg.MaxAttempts)
	}
	// Degraded mode: the fleet is gone or refusing; finish the sweep on
	// the coordinator. Same cell, same seeds — same bytes, so the
	// locally computed payload checkpoints like a remote one.
	c.local.Inc()
	c.log.Warn("cell fell back to local execution", "cell", id.String())
	_, err := run()
	return err
}

// permanentError wraps failures retrying cannot fix (bad specs, driver
// errors): the cell would fail identically on every daemon.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// retryableError carries an optional server-requested delay.
type retryableError struct {
	err        error
	retryAfter time.Duration
}

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryAfterOf(err error) time.Duration {
	var r *retryableError
	if errors.As(err, &r) {
		return r.retryAfter
	}
	return 0
}

// spec builds the wire submission for one cell: every scale explicit so
// the daemon reproduces the coordinator's Options exactly, parallelism
// 1 because a cell runs on one goroutine.
func (c *Coordinator) spec(id experiments.CellID) serve.Spec {
	return serve.Spec{
		Experiment:  c.experiment,
		Parallelism: 1,
		Seed:        c.opts.Seed,
		SynRequests: c.opts.SynRequests,
		WebScale:    c.opts.WebScale,
		ProxyScale:  c.opts.ProxyScale,
		FileScale:   c.opts.FileScale,
		Cell:        &id,
	}
}

// runCellJob performs one remote attempt: submit, poll to terminal,
// decode. Every failure is classified retryable or permanent.
func (c *Coordinator) runCellJob(ctx context.Context, d *daemon, id experiments.CellID, attempt int) ([]byte, error) {
	if c.cfg.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CellTimeout)
		defer cancel()
	}
	jobID, err := c.submit(ctx, d, id, attempt)
	if err != nil {
		return nil, err
	}
	pollErrs := 0
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Abandoning the job: best-effort cancel so the daemon does
			// not burn a window slot on a result nobody will accept.
			c.cancelJob(d, jobID)
			if c.opts.Ctx.Err() != nil {
				return nil, ctx.Err() // whole sweep cancelled
			}
			return nil, &retryableError{err: fmt.Errorf("cell attempt timed out after %v", c.cfg.CellTimeout)}
		case <-ticker.C:
		}
		v, err := c.getJob(ctx, d, jobID)
		if err != nil {
			if pollErrs++; pollErrs < 3 {
				continue // one flaky read is not a death certificate
			}
			d.markDown()
			return nil, &retryableError{err: fmt.Errorf("daemon unreachable polling %s: %w", jobID, err)}
		}
		pollErrs = 0
		switch v.State {
		case serve.StateDone:
			payload, err := base64.StdEncoding.DecodeString(v.Result)
			if err != nil {
				return nil, &permanentError{err: fmt.Errorf("undecodable cell payload: %w", err)}
			}
			return payload, nil
		case serve.StateFailed:
			// Deterministic cells fail identically everywhere — except
			// when the daemon killed the job for its own reasons
			// (deadline on a drain path); those read as failed too, but
			// the error text distinguishes them poorly, so be strict:
			// spec/driver failures are permanent.
			return nil, &permanentError{err: fmt.Errorf("cell job failed: %s", v.Error)}
		case serve.StateCanceled:
			// A drain or operator cancelled it; the work is still
			// needed — requeue on a survivor.
			return nil, &retryableError{err: fmt.Errorf("cell job cancelled by daemon")}
		}
	}
}

// submit posts the cell job, classifying the daemon's admission answer.
// Each attempt carries its own Idempotency-Key (run nonce + cell +
// attempt ordinal): a lost response retried at the same key returns the
// already-admitted job (200) instead of admitting a second one, while a
// later attempt — whose predecessor's job may have been cancelled —
// gets a fresh key and therefore a fresh job. Per-cell keys would pin
// every retry to that first, possibly dead, job.
func (c *Coordinator) submit(ctx context.Context, d *daemon, id experiments.CellID, attempt int) (string, error) {
	body, err := json.Marshal(c.spec(id))
	if err != nil {
		return "", &permanentError{err: err}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", &permanentError{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", fmt.Sprintf("fleet-%s-%s-a%d", c.nonce, id, attempt))
	resp, err := c.client.Do(req)
	if err != nil {
		d.markDown()
		return "", &retryableError{err: fmt.Errorf("submit to %s: %w", d.name, err)}
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK: // 200 = idempotent replay of this attempt
		var v serve.View
		if err := json.Unmarshal(raw, &v); err != nil {
			return "", &permanentError{err: fmt.Errorf("bad submit response: %w", err)}
		}
		c.dispatched.With(d.name).Inc()
		return v.ID, nil
	case http.StatusTooManyRequests:
		// Backpressure: gate this daemon for the server-requested span
		// and let the dispatch loop place the cell elsewhere meanwhile.
		retryAfter, _ := ParseRetryAfter(resp.Header)
		if retryAfter <= 0 {
			retryAfter = time.Second
		}
		d.gate(time.Now().Add(retryAfter))
		return "", &retryableError{
			err:        fmt.Errorf("%s rejected with 429 (Retry-After %v)", d.name, retryAfter),
			retryAfter: 0, // the gate handles the wait; other daemons need not
		}
	case http.StatusServiceUnavailable:
		d.setHealth(true, true) // alive but draining
		return "", &retryableError{err: fmt.Errorf("%s is draining", d.name)}
	default:
		err := fmt.Errorf("submit rejected: %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		if resp.StatusCode >= 500 {
			// A 5xx is the daemon's problem, not the cell's: proxies flap,
			// processes restart. Retry elsewhere rather than abort the sweep.
			return "", &retryableError{err: err}
		}
		return "", &permanentError{err: err}
	}
}

// getJob fetches one job view.
func (c *Coordinator) getJob(ctx context.Context, d *daemon, jobID string) (serve.View, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return serve.View{}, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return serve.View{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return serve.View{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return serve.View{}, fmt.Errorf("job poll: %s", resp.Status)
	}
	var v serve.View
	if err := json.Unmarshal(raw, &v); err != nil {
		return serve.View{}, err
	}
	return v, nil
}

// cancelJob best-effort DELETEs an abandoned job. The daemon may be
// dead; that is fine.
func (c *Coordinator) cancelJob(d *daemon, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, d.base+"/v1/jobs/"+jobID, nil)
	if err != nil {
		return
	}
	if resp, err := c.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
}

// probeLoop keeps daemon liveness fresh until ctx fires.
func (c *Coordinator) probeLoop(ctx context.Context) {
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.probeAll()
		}
	}
}

// probeAll probes every daemon once, concurrently (a dead daemon's
// connection timeout must not delay marking the others up).
func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, d := range c.daemons {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.probe(d)
		}()
	}
	wg.Wait()
}

// probe asks one daemon's /healthz and applies the answer: 200 -> up,
// 503/"draining" -> alive but not accepting, anything else -> down.
func (c *Coordinator) probe(d *daemon) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		d.setHealth(false, false)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		wasUp, _, _ := d.snapshot()
		d.setHealth(false, false)
		if wasUp {
			c.log.Warn("daemon down", "daemon", d.name, "error", err.Error())
		}
		return
	}
	defer resp.Body.Close()
	var body struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body)
	up := resp.StatusCode == http.StatusOK && body.Status == "ok"
	draining := body.Draining || body.Status == "draining" ||
		resp.StatusCode == http.StatusServiceUnavailable
	wasUp, wasDraining, _ := d.snapshot()
	d.setHealth(up || draining, draining)
	switch {
	case !wasUp && (up || draining):
		c.log.Info("daemon up", "daemon", d.name, "draining", draining)
	case wasUp && !wasDraining && draining:
		c.log.Info("daemon draining; dispatch stopped", "daemon", d.name)
	}
}
