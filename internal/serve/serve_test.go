package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// harness wraps a Server in an httptest server.
type harness struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return &harness{t: t, srv: srv, ts: ts}
}

// blockingRunner returns a runner that parks until its context fires or
// release is closed, plus the release function. started receives one
// value per invocation.
func blockingRunner(started chan<- string) (func(ctx context.Context, sp Spec, prog *probe.Progress, ck *Checkpoint) (string, error), func()) {
	release := make(chan struct{})
	run := func(ctx context.Context, sp Spec, prog *probe.Progress, ck *Checkpoint) (string, error) {
		if started != nil {
			started <- sp.Experiment
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-release:
			return "result:" + sp.Experiment, nil
		}
	}
	var once sync.Once
	return run, func() { once.Do(func() { close(release) }) }
}

func (h *harness) request(method, path string, body any) (int, http.Header, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

func (h *harness) submit(spec Spec) View {
	h.t.Helper()
	status, _, raw := h.request("POST", "/v1/jobs", spec)
	if status != http.StatusAccepted {
		h.t.Fatalf("submit: status %d: %s", status, raw)
	}
	var v View
	if err := json.Unmarshal(raw, &v); err != nil {
		h.t.Fatal(err)
	}
	return v
}

func (h *harness) get(id string) View {
	h.t.Helper()
	status, _, raw := h.request("GET", "/v1/jobs/"+id, nil)
	if status != http.StatusOK {
		h.t.Fatalf("get %s: status %d: %s", id, status, raw)
	}
	var v View
	if err := json.Unmarshal(raw, &v); err != nil {
		h.t.Fatal(err)
	}
	return v
}

// await polls until the job leaves the given states or the deadline
// passes.
func (h *harness) await(id string, timeout time.Duration, until func(View) bool) View {
	h.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := h.get(id)
		if until(v) {
			return v
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("job %s stuck in state %s", id, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func terminal(v View) bool { return v.State.terminal() }

// TestSubmitStatusResultRoundTrip drives a real experiment end to end
// and requires the daemon's result to be byte-identical to the CLI
// path (same registry call, same renderer, same seed).
func TestSubmitStatusResultRoundTrip(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	spec := Spec{Experiment: "fig1", Quick: true, Parallelism: 1}
	v := h.submit(spec)
	if v.State != StateQueued || v.ID == "" {
		t.Fatalf("submit view: %+v", v)
	}
	v = h.await(v.ID, 2*time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if v.StartedAt == nil || v.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", v)
	}

	table, err := experiments.Run("fig1", func() experiments.Options {
		o := experiments.Quick()
		o.Parallelism = 1
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	table.Format(&want)
	if v.Result != want.String() {
		t.Fatalf("daemon result diverges from the CLI path:\n--- daemon ---\n%s--- cli ---\n%s", v.Result, want.String())
	}
}

// TestBackpressure32Over8 fires 32 concurrent submissions at a queue of
// capacity 8 with one (blocked) worker: every request is answered, the
// accepted count is bounded by capacity + the in-flight slot, and the
// excess is rejected with 429 + Retry-After.
func TestBackpressure32Over8(t *testing.T) {
	started := make(chan string, 64)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 8, Workers: 1, Runner: run})
	defer release()

	const n = 32
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, hdr, _ := h.request("POST", "/v1/jobs", Spec{Experiment: "fig1", Quick: true})
			if status == http.StatusTooManyRequests && hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			codes <- status
		}()
	}
	wg.Wait()
	close(codes)
	accepted, rejected := 0, 0
	for c := range codes {
		switch c {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	// At most capacity + the one job a worker may have dequeued; at
	// least the queue's worth must get in.
	if accepted < 8 || accepted > 9 {
		t.Fatalf("accepted %d of %d with queue capacity 8", accepted, n)
	}
	if rejected != n-accepted {
		t.Fatalf("accepted %d + rejected %d != %d", accepted, rejected, n)
	}
	if !strings.Contains(scrape(t, h.srv), "\ndiskthru_queue_capacity 8\n") {
		t.Fatal("metrics missing queue capacity")
	}
	release()
	for _, v := range h.srv.List() {
		h.await(v.ID, 10*time.Second, terminal)
	}
}

// TestCancelQueuedJob cancels a job before any worker reaches it.
func TestCancelQueuedJob(t *testing.T) {
	run, release := blockingRunner(nil)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	defer release()
	blocker := h.submit(Spec{Experiment: "fig1"})
	queued := h.submit(Spec{Experiment: "fig2"})

	status, _, raw := h.request("DELETE", "/v1/jobs/"+queued.ID, nil)
	if status != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", status, raw)
	}
	var v View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.State != StateCanceled {
		t.Fatalf("queued job state %s after cancel, want canceled immediately", v.State)
	}
	release()
	h.await(blocker.ID, 10*time.Second, terminal)
}

// TestCancelRunningJob cancels mid-run and requires the canceled state
// within one client poll interval (the runner parks on ctx.Done, as the
// real engine's cancel poll does at far finer granularity).
func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	defer release()
	v := h.submit(Spec{Experiment: "fig1"})
	<-started // the worker owns it now
	if status, _, _ := h.request("DELETE", "/v1/jobs/"+v.ID, nil); status != http.StatusAccepted {
		t.Fatalf("cancel: status %d", status)
	}
	v = h.await(v.ID, time.Second, terminal)
	if v.State != StateCanceled {
		t.Fatalf("state %s, want canceled", v.State)
	}
	if v.Error == "" {
		t.Fatal("canceled job carries no error detail")
	}
}

// TestCancelRealReplayMidRun proves cancellation reaches the simulator:
// a real quick experiment is cancelled while running and must stop long
// before its natural completion.
func TestCancelRealReplayMidRun(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4, Workers: 1})
	v := h.submit(Spec{Experiment: "table2", Quick: true, Parallelism: 1})
	h.await(v.ID, 30*time.Second, func(v View) bool { return v.State == StateRunning })
	time.Sleep(50 * time.Millisecond)
	if status, _, _ := h.request("DELETE", "/v1/jobs/"+v.ID, nil); status != http.StatusAccepted {
		t.Fatalf("cancel: status %d", status)
	}
	v = h.await(v.ID, 5*time.Second, terminal)
	if v.State != StateCanceled {
		t.Fatalf("state %s (%s), want canceled", v.State, v.Error)
	}
}

// TestDeadlineExpiryFailsJob submits a job whose deadline fires while
// the runner is parked; the job must end failed with a timeout error.
func TestDeadlineExpiryFailsJob(t *testing.T) {
	run, release := blockingRunner(nil)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	defer release()
	v := h.submit(Spec{Experiment: "fig1", TimeoutSeconds: 0.05})
	v = h.await(v.ID, 5*time.Second, terminal)
	if v.State != StateFailed {
		t.Fatalf("state %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", v.Error)
	}
}

// TestDrainFinishesInFlight is the SIGTERM path: admission closes,
// accepted jobs complete, Drain returns only when the pool is idle.
func TestDrainFinishesInFlight(t *testing.T) {
	started := make(chan string, 4)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	running := h.submit(Spec{Experiment: "fig1"})
	queued := h.submit(Spec{Experiment: "fig2"})
	<-started

	drained := make(chan error, 1)
	go func() { drained <- h.srv.Drain(context.Background()) }()
	// Admission must close promptly even though jobs are still alive.
	deadline := time.Now().Add(2 * time.Second)
	for !h.srv.Draining() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if status, _, _ := h.request("POST", "/v1/jobs", Spec{Experiment: "fig3"}); status != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503", status)
	}
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with jobs still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not finish after jobs completed")
	}
	for _, id := range []string{running.ID, queued.ID} {
		if v := h.get(id); v.State != StateDone {
			t.Fatalf("job %s ended %s after graceful drain, want done", id, v.State)
		}
	}
}

// TestForcedDrainCancelsStragglers: when the drain context fires first,
// every remaining job is cancelled and Drain still returns.
func TestForcedDrainCancelsStragglers(t *testing.T) {
	started := make(chan string, 4)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	defer release()
	running := h.submit(Spec{Experiment: "fig1"})
	queued := h.submit(Spec{Experiment: "fig2"})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := h.srv.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if v := h.get(id); v.State != StateCanceled {
			t.Fatalf("job %s ended %s after forced drain, want canceled", id, v.State)
		}
	}
}

// rawRequest POSTs an unencoded body, for malformed-JSON cases the
// typed request helper cannot produce.
func (h *harness) rawRequest(method, path, body string) (int, []byte) {
	h.t.Helper()
	req, err := http.NewRequest(method, h.ts.URL+path, strings.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestPanickingJobFailsWithoutKillingDaemon registers a driver that
// panics, runs it through the real registry-backed runner, and requires
// the job to end failed — with the panic message — while the daemon
// keeps serving: a real experiment submitted afterwards must complete.
func TestPanickingJobFailsWithoutKillingDaemon(t *testing.T) {
	if err := experiments.Register("panic-test", func(experiments.Options) (*experiments.Table, error) {
		panic("boom: deliberate test panic")
	}); err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, Config{QueueCap: 4, Workers: 1})
	v := h.submit(Spec{Experiment: "panic-test"})
	v = h.await(v.ID, 10*time.Second, terminal)
	if v.State != StateFailed {
		t.Fatalf("panicking job ended %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "panicked") || !strings.Contains(v.Error, "boom") {
		t.Fatalf("error %q does not carry the panic", v.Error)
	}
	// The worker survived: the daemon still runs real jobs.
	v = h.submit(Spec{Experiment: "fig1", Quick: true, Parallelism: 1})
	v = h.await(v.ID, 2*time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("post-panic job ended %s: %s", v.State, v.Error)
	}
	if !strings.Contains(scrape(t, h.srv), `diskthru_jobs_finished_total{state="failed"} 1`) {
		t.Fatal("metrics did not count the panicked job as failed")
	}
}

// TestMalformedSubmissionsRejected covers the raw-body 400 paths:
// malformed JSON, trailing garbage, unknown driver, negative timeout —
// each must produce a 400 with a JSON error body.
func TestMalformedSubmissionsRejected(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	for name, body := range map[string]string{
		"malformed JSON":   `{"experiment": }`,
		"truncated JSON":   `{"experiment": "fig1"`,
		"trailing garbage": `{"experiment": "fig1"} {"again": true}`,
		"unknown driver":   `{"experiment": "no-such-driver"}`,
		"negative timeout": `{"experiment": "fig1", "timeout_seconds": -3}`,
	} {
		status, raw := h.rawRequest("POST", "/v1/jobs", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, raw)
			continue
		}
		var e apiError
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error", name, raw)
		}
	}
	if got := len(h.srv.List()); got != 0 {
		t.Fatalf("%d jobs admitted from malformed submissions", got)
	}
}

func TestBadSubmissions(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	for name, body := range map[string]any{
		"unknown experiment": Spec{Experiment: "fig999"},
		"bad format":         Spec{Experiment: "fig1", Format: "yaml"},
		"negative timeout":   Spec{Experiment: "fig1", TimeoutSeconds: -1},
		"unknown field":      map[string]any{"experiment": "fig1", "bogus": 1},
	} {
		if status, _, raw := h.request("POST", "/v1/jobs", body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, raw)
		}
	}
	if status, _, _ := h.request("GET", "/v1/jobs/j999999", nil); status != http.StatusNotFound {
		t.Error("unknown job id did not 404")
	}
	if status, _, _ := h.request("DELETE", "/v1/jobs/j999999", nil); status != http.StatusNotFound {
		t.Error("cancel of unknown job did not 404")
	}
}

func TestListHealthzMetrics(t *testing.T) {
	started := make(chan string, 4)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})
	first := h.submit(Spec{Experiment: "fig1"})
	second := h.submit(Spec{Experiment: "fig2"})
	<-started

	status, _, raw := h.request("GET", "/v1/jobs", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	var index []IndexEntry
	if err := json.Unmarshal(raw, &index); err != nil {
		t.Fatal(err)
	}
	if len(index) != 2 || index[0].ID != first.ID || index[1].ID != second.ID {
		t.Fatalf("list order wrong: %+v", index)
	}
	if index[0].Experiment != "fig1" || index[1].Experiment != "fig2" {
		t.Fatalf("index experiments wrong: %+v", index)
	}
	if index[0].SubmittedAt.IsZero() {
		t.Fatal("index entry missing submitted_at")
	}
	if bytes.Contains(raw, []byte(`"result"`)) {
		t.Fatal("job index leaks result bodies")
	}

	// ?limit=N paginates to the N most recently submitted jobs.
	status, _, raw = h.request("GET", "/v1/jobs?limit=1", nil)
	if status != http.StatusOK {
		t.Fatalf("list limit=1: status %d", status)
	}
	index = nil
	if err := json.Unmarshal(raw, &index); err != nil {
		t.Fatal(err)
	}
	if len(index) != 1 || index[0].ID != second.ID {
		t.Fatalf("limit=1 should keep only the newest job: %+v", index)
	}
	if status, _, _ = h.request("GET", "/v1/jobs?limit=-3", nil); status != http.StatusBadRequest {
		t.Errorf("negative limit: status %d, want 400", status)
	}
	if status, _, _ = h.request("GET", "/v1/jobs?limit=bogus", nil); status != http.StatusBadRequest {
		t.Errorf("non-numeric limit: status %d, want 400", status)
	}

	status, _, raw = h.request("GET", "/healthz", nil)
	if status != http.StatusOK || !bytes.Contains(raw, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", status, raw)
	}

	release()
	h.await(first.ID, 10*time.Second, terminal)
	h.await(second.ID, 10*time.Second, terminal)
	m := scrape(t, h.srv)
	for _, want := range []string{
		"diskthru_jobs_submitted_total 2",
		`diskthru_jobs_finished_total{state="done"} 2`,
		`diskthru_job_duration_seconds_count{experiment="fig1"} 1`,
		"diskthru_jobs_running 0",
		"diskthru_queue_depth 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q in:\n%s", want, m)
		}
	}
}

// TestResultFormats checks the csv rendering path.
func TestResultFormats(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 2})
	v := h.submit(Spec{Experiment: "fig1", Quick: true, Parallelism: 1, Format: "csv"})
	v = h.await(v.ID, 2*time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}
	if !strings.Contains(v.Result, ",") || strings.Contains(v.Result, "==") {
		t.Fatalf("result does not look like CSV:\n%s", v.Result)
	}
}

// TestStreamStatsJobRoundTrip drives the longrun experiment — open-loop
// source workload plus streaming latency sketch — through the job API,
// checking the stream_stats spec field reaches the options and the
// daemon's table matches the CLI path byte for byte.
func TestStreamStatsJobRoundTrip(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	v := h.submit(Spec{Experiment: "longrun", Quick: true, Parallelism: 1, StreamStats: true})
	v = h.await(v.ID, 2*time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}

	table, err := experiments.Run("longrun", func() experiments.Options {
		o := experiments.Quick()
		o.Parallelism = 1
		o.StreamStats = true
		return o
	}())
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	table.Format(&want)
	if v.Result != want.String() {
		t.Fatalf("daemon result diverges from the CLI path:\n--- daemon ---\n%s--- cli ---\n%s", v.Result, want.String())
	}
}
