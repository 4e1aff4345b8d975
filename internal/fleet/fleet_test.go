package fleet

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
	"diskthru/internal/metrics"
	"diskthru/internal/serve"
)

// bootDaemons starts n in-process daemons (real serve.Server over
// httptest), optionally wrapped, and returns their endpoints.
func bootDaemons(t *testing.T, n int, wrap func(http.Handler) http.Handler) []string {
	t.Helper()
	return bootDaemonsCfg(t, n, wrap, serve.Config{QueueCap: 16, Workers: 1})
}

// bootDaemonsCfg is bootDaemons with an explicit daemon config, usable
// from benchmarks too.
func bootDaemonsCfg(t testing.TB, n int, wrap func(http.Handler) http.Handler, cfg serve.Config) []string {
	t.Helper()
	endpoints := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := serve.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := http.Handler(srv.Handler())
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		})
		endpoints[i] = ts.URL
	}
	return endpoints
}

// quick1 is the reference options: Quick scales, serial — what
// `diskthru -experiment X -quick -j 1` uses.
func quick1() experiments.Options {
	o := experiments.Quick()
	o.Parallelism = 1
	return o
}

// TestFleetByteIdentical is the acceptance sweep: table2 (replay
// cells) and fig2 (computed-values cells) across three healthy daemons
// must render byte-identically to the single-node serial run, with no
// cell run on the coordinator.
func TestFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 and fig2 twice")
	}
	c, err := New(Config{Endpoints: bootDaemons(t, 3, nil), Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table2", "fig2"} {
		want, err := experiments.Run(name, quick1())
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(context.Background(), name, experiments.Quick())
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: fleet table differs from single-node run:\n--- single ---\n%s--- fleet ---\n%s",
				name, want, got)
		}
	}
	if v := c.completed.Value(); v == 0 {
		t.Error("no cells completed remotely")
	}
	if v := c.local.Value(); v != 0 {
		t.Errorf("healthy 3-daemon fleet ran %v cells locally", v)
	}
}

// flakyProxy fails a deterministic fraction of requests before they
// reach the daemon: 429s with Retry-After (backpressure path) and 500s
// (infrastructure flake path). The seeded source makes failures
// reproducible; the mutex makes the stub race-clean.
type flakyProxy struct {
	mu   sync.Mutex
	rng  *rand.Rand
	next http.Handler
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	roll := f.rng.Float64()
	f.mu.Unlock()
	switch {
	case roll < 0.10 && r.Method == http.MethodPost:
		w.Header().Set("Retry-After", "0.05")
		http.Error(w, `{"error":"injected backpressure"}`, http.StatusTooManyRequests)
	case roll < 0.15:
		http.Error(w, `{"error":"injected flake"}`, http.StatusInternalServerError)
	default:
		f.next.ServeHTTP(w, r)
	}
}

// TestFleetFlakyStealingStress hammers the dispatcher: every daemon
// sits behind a flaky proxy injecting 429s and 500s, one configured
// endpoint refuses connections outright, and the merged table must
// still be byte-identical. Run with -race this doubles as the
// stealing/requeue concurrency test.
func TestFleetFlakyStealingStress(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 twice under injected faults")
	}
	want, err := experiments.Run("table2", quick1())
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(42)
	endpoints := bootDaemons(t, 3, func(next http.Handler) http.Handler {
		p := &flakyProxy{rng: rand.New(rand.NewSource(seed)), next: next}
		seed++
		return p
	})
	// A permanently dead endpoint: connection refused on every dial.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	endpoints = append(endpoints, deadURL)

	c, err := New(Config{
		Endpoints: endpoints,
		Window:    2,
		Backoff:   Backoff{Base: 10 * time.Millisecond, Max: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), "table2", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("flaky fleet table differs from single-node run:\n--- single ---\n%s--- fleet ---\n%s",
			want, got)
	}
	t.Logf("flaky sweep: completed=%v stolen=%v requeued=%v local=%v",
		c.completed.Value(), c.stolen.Value(), c.requeued.Value(), c.local.Value())
}

// TestFleetDrainingDaemonGetsNoWork: a daemon that reports draining on
// /healthz receives zero submissions, and the sweep completes on the
// others.
func TestFleetDrainingDaemonGetsNoWork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment sweep")
	}
	endpoints := bootDaemons(t, 2, nil)
	var hits sync.Map
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"status":"draining","draining":true}`)) //nolint:errcheck
			return
		}
		hits.Store(r.Method+" "+r.URL.Path, true)
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
	}))
	t.Cleanup(draining.Close)
	endpoints = append(endpoints, draining.URL)

	c, err := New(Config{Endpoints: endpoints, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) == 0 {
		t.Error("empty table")
	}
	hits.Range(func(k, _ any) bool {
		t.Errorf("draining daemon received %v", k)
		return true
	})
}

// TestFleetMetricsLint scrapes the coordinator registry after a sweep
// and holds it to the same exposition standards as the daemon's.
func TestFleetMetricsLint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an experiment sweep")
	}
	c, err := New(Config{Endpoints: bootDaemons(t, 2, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), "faults", experiments.Quick()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, sb.String())
	}
	for _, lintErr := range metrics.Lint(fams) {
		t.Errorf("lint: %v", lintErr)
	}
	byName := map[string]metrics.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, name := range []string{
		"fleet_cells_dispatched_total", "fleet_cells_stolen_total",
		"fleet_cells_requeued_total", "fleet_cells_completed_total",
		"fleet_cells_local_total", "fleet_cells_resumed_total",
		"fleet_daemon_up", "fleet_daemon_draining", "fleet_daemon_inflight",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("scrape missing %s", name)
		}
	}
	if got := len(byName["fleet_daemon_up"].Samples); got != 2 {
		t.Errorf("fleet_daemon_up has %d samples, want one per daemon (2)", got)
	}
}

// TestFleetConfigErrors pins construction-time validation.
func TestFleetConfigErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no endpoints accepted")
	}
	if _, err := New(Config{Endpoints: []string{"127.0.0.1:1", "127.0.0.1:1"}}); err == nil {
		t.Error("duplicate endpoints accepted")
	}
	c, err := New(Config{Endpoints: []string{"127.0.0.1:9"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.daemons[0].base != "http://127.0.0.1:9" {
		t.Errorf("scheme not defaulted: %s", c.daemons[0].base)
	}
	if _, err := c.Run(context.Background(), "table2", experiments.Options{}); err == nil {
		t.Error("invalid options accepted")
	}
}

// TestBackoff pins the retry-helper contract both the dispatcher and
// diskthru-client rely on.
func TestBackoff(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: func() float64 { return 0 }}
	for attempt, want := range []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	} {
		if got := b.Delay(attempt, 0); got != want {
			t.Errorf("Delay(%d) = %v, want %v (no jitter)", attempt, got, want)
		}
	}
	if got := b.Delay(0, 3*time.Second); got != 3*time.Second {
		t.Errorf("Retry-After floor ignored: %v", got)
	}
	// Huge attempt numbers must not overflow past Max.
	if got := b.Delay(64, 0); got != time.Second {
		t.Errorf("Delay(64) = %v, want Max", got)
	}
	jittered := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Rand: func() float64 { return 0.75 }}
	if got := jittered.Delay(0, 0); got != 25*time.Millisecond {
		t.Errorf("jittered Delay(0) = %v, want 25ms", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := b.Sleep(ctx, 5, 0); err == nil {
		t.Error("Sleep ignored cancelled context")
	}
}

func TestParseRetryAfter(t *testing.T) {
	h := http.Header{}
	if _, ok := ParseRetryAfter(h); ok {
		t.Error("absent header parsed")
	}
	h.Set("Retry-After", "1.5")
	if d, ok := ParseRetryAfter(h); !ok || d != 1500*time.Millisecond {
		t.Errorf("got %v %v", d, ok)
	}
	for _, bad := range []string{"-2", "soon", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		h.Set("Retry-After", bad)
		if _, ok := ParseRetryAfter(h); ok {
			t.Errorf("%q parsed", bad)
		}
	}
}

// TestFleetResumeFromJournal: a sweep journaled under -state-dir is
// rerun with -resume against a fleet that is entirely dead, with local
// fallback disabled — so the only way the sweep can finish is from the
// journal. The resumed table must be byte-identical, nothing may be
// dispatched, and a fingerprint mismatch must fail closed.
func TestFleetResumeFromJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults experiment three times")
	}
	want, err := experiments.Run("faults", quick1())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c1, err := New(Config{Endpoints: bootDaemons(t, 2, nil), Window: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c1.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("journaling sweep diverged from single-node run:\n--- single ---\n%s--- fleet ---\n%s", want, got)
	}
	journaled := c1.completed.Value()
	if journaled == 0 {
		t.Fatal("healthy sweep accepted no remote cells; nothing journaled")
	}

	// Connection refused on every dial: remote execution is impossible.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	c2, err := New(Config{
		Endpoints:            []string{deadURL},
		StateDir:             dir,
		Resume:               true,
		DisableLocalFallback: true,
		MaxAttempts:          1,
		Backoff:              Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err = c2.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatalf("resume against a dead fleet failed — journal did not cover the sweep: %v", err)
	}
	if got.String() != want.String() {
		t.Errorf("resumed table diverged:\n--- single ---\n%s--- resumed ---\n%s", want, got)
	}
	if v := c2.completed.Value(); v != 0 {
		t.Errorf("resume dispatched %v cells remotely, want 0", v)
	}
	if v := c2.resumedC.Value(); v != journaled {
		t.Errorf("resumed %v cells from the journal, want all %v journaled ones", v, journaled)
	}

	// Same journal, different options: the fingerprint must refuse it.
	c3, err := New(Config{Endpoints: []string{deadURL}, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Quick()
	o.Seed = 7
	if _, err := c3.Run(context.Background(), "faults", o); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("fingerprint mismatch not rejected: %v", err)
	}
}

// TestFleetResumePartialJournal: a journal truncated mid-record (the
// coordinator was SIGKILLed mid-append) resumes what survived, the
// healthy fleet re-runs the rest, and the merge is still byte-identical.
func TestFleetResumePartialJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults experiment twice")
	}
	want, err := experiments.Run("faults", quick1())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	endpoints := bootDaemons(t, 2, nil)
	c1, err := New(Config{Endpoints: endpoints, Window: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(context.Background(), "faults", experiments.Quick()); err != nil {
		t.Fatal(err)
	}
	total := c1.completed.Value()
	if total < 2 {
		t.Fatalf("faults accepted only %v remote cells; cannot truncate meaningfully", total)
	}

	// Chop into the last record: the journal layer must truncate the
	// torn frame and keep the prefix.
	path := filepath.Join(dir, "fleet.journal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{Endpoints: endpoints, Window: 2, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("partial resume diverged:\n--- single ---\n%s--- resumed ---\n%s", want, got)
	}
	resumed, redone := c2.resumedC.Value(), c2.completed.Value()
	if resumed == 0 || resumed >= total {
		t.Errorf("resumed %v of %v cells after truncation, want a proper subset", resumed, total)
	}
	if redone == 0 {
		t.Error("truncated journal resumed everything; the torn record was not dropped")
	}
	t.Logf("partial resume: %v resumed, %v re-dispatched of %v", resumed, redone, total)
}

// TestFleetResumeStalePayload: a journaled cell whose payload no longer
// decodes (its slot tag is wrong) is re-dispatched on resume, and the
// fresh result fills its slot. Every other journaled cell is injected
// without dispatch.
func TestFleetResumeStalePayload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the faults experiment three times")
	}
	want, err := experiments.Run("faults", quick1())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	endpoints := bootDaemons(t, 2, nil)
	c1, err := New(Config{Endpoints: endpoints, Window: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(context.Background(), "faults", experiments.Quick()); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "fleet.journal")
	var recs [][]byte
	w, _, err := journal.Open(path, func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	cells, corrupted := 0, false
	for i, raw := range recs {
		var rec sweepRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != "cell" {
			continue
		}
		cells++
		if corrupted {
			continue
		}
		if rec.Payload[0] == 'R' {
			rec.Payload[0] = 'L'
		} else {
			rec.Payload[0] = 'R'
		}
		if recs[i], err = json.Marshal(rec); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("journal holds no cell records")
	}
	w, _, err = journal.Open(path, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{Endpoints: endpoints, Window: 2, StateDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Run(context.Background(), "faults", experiments.Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("resume over a stale payload diverged:\n--- single ---\n%s--- resumed ---\n%s", want, got)
	}
	if v := c2.resumedC.Value(); v != float64(cells-1) {
		t.Errorf("resumed %v cells, want %d (every journaled cell but the stale one)", v, cells-1)
	}
	if v := c2.completed.Value(); v != 1 {
		t.Errorf("re-dispatched %v cells, want only the stale one", v)
	}
}

// TestFleetResumeRefusesForeignSpec: a journal whose header spec carries
// a field this version does not know — here the stream_stats switch of
// coordinators that let a sweep pick its latency summary — must fail
// closed on resume, even though it decodes to exactly this sweep's
// spec: its cells may have been computed differently.
func TestFleetResumeRefusesForeignSpec(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	dir := t.TempDir()
	c, err := New(Config{Endpoints: []string{deadURL}, StateDir: dir, Resume: true,
		DisableLocalFallback: true, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := experiments.Quick()
	c.experiment, c.opts = "longrun", o
	base, err := json.Marshal(c.baseSpec())
	if err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(string(base), `"parallelism":1,`, `"parallelism":1,"stream_stats":true,`, 1)
	if legacy == string(base) {
		t.Fatalf("base spec %s has no parallelism field to splice after", base)
	}
	var decoded serve.Spec
	if err := json.Unmarshal([]byte(legacy), &decoded); err != nil {
		t.Fatal(err)
	}
	if again, _ := json.Marshal(decoded); string(again) != string(base) {
		t.Fatalf("legacy header no longer decodes to this sweep's spec:\n%s\n%s", again, base)
	}

	w, _, err := journal.Open(filepath.Join(dir, "fleet.journal"), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"type":"sweep","experiment":"longrun","spec":` + legacy + `}`,
		`{"type":"cell","cell":{"index":0},"payload":"UgA="}`,
	} {
		if err := w.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), "longrun", o); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("journal with a foreign spec field not refused: %v", err)
	}
}
