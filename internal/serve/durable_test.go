package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
	"diskthru/internal/metrics"
	"diskthru/internal/probe"
)

// instantRunner completes immediately with a deterministic result and
// counts invocations per experiment name, so restarts can prove
// exactly-once re-execution.
func instantRunner() (func(ctx context.Context, sp Spec, prog *probe.Progress, ck *Checkpoint) (string, error), func(string) int) {
	var mu sync.Mutex
	counts := map[string]int{}
	run := func(_ context.Context, sp Spec, _ *probe.Progress, _ *Checkpoint) (string, error) {
		mu.Lock()
		counts[sp.Experiment]++
		mu.Unlock()
		return "result:" + sp.Experiment, nil
	}
	return run, func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		return counts[name]
	}
}

// writeRecords crafts a journal under dir from whole records, the way a
// previous daemon incarnation would have left it.
func writeRecords(t *testing.T, dir string, recs []record) {
	t.Helper()
	w, _, err := journal.Open(filepath.Join(dir, journalFile), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// awaitJob polls the server directly (no HTTP) until the predicate
// holds.
func awaitJob(t *testing.T, s *Server, id string, timeout time.Duration, until func(View) bool) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v, ok := s.Get(id)
		if ok && until(v) {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck (state %s, known %v)", id, v.State, ok)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// drainNow force-drains s so its journal writer goes quiet.
func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.Drain(ctx)
}

// scrape renders the server's Prometheus registry.
func scrape(t *testing.T, s *Server) string {
	t.Helper()
	var sb strings.Builder
	if err := s.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRecoveryRestoresTerminalJobs: jobs that finished before a restart
// reappear verbatim — same ids, results, submission times — flagged
// recovered, the id sequence continues, and idempotency keys keep
// working across the restart.
func TestRecoveryRestoresTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	run, _ := instantRunner()
	s1, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.Submit(Spec{Experiment: "fig1", IdempotencyKey: "key-a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s1.Submit(Spec{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, s1, a.ID, 10*time.Second, terminal)
	awaitJob(t, s1, b.ID, 10*time.Second, terminal)
	drainNow(t, s1)

	s2, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s2)
	for _, orig := range []View{a, b} {
		v, ok := s2.Get(orig.ID)
		if !ok {
			t.Fatalf("job %s lost across restart", orig.ID)
		}
		if v.State != StateDone {
			t.Errorf("job %s recovered in state %s, want done", orig.ID, v.State)
		}
		if want := "result:" + orig.Spec.Experiment; v.Result != want {
			t.Errorf("job %s result %q, want %q", orig.ID, v.Result, want)
		}
		if !v.Recovered {
			t.Errorf("job %s not flagged recovered", orig.ID)
		}
		if !v.SubmittedAt.Equal(orig.SubmittedAt) {
			t.Errorf("job %s submitted_at %v != original %v", orig.ID, v.SubmittedAt, orig.SubmittedAt)
		}
	}
	// The GET /v1/jobs index carries the recovered flag too.
	for _, e := range s2.Index(0, "") {
		if !e.Recovered {
			t.Errorf("index entry %s not flagged recovered", e.ID)
		}
	}
	// Fresh submissions continue the id sequence instead of reusing j000001.
	c, err := s2.Submit(Spec{Experiment: "fig3"})
	if err != nil {
		t.Fatal(err)
	}
	if c.ID != "j000003" {
		t.Errorf("post-recovery id %s, want j000003", c.ID)
	}
	// The original idempotency key still resolves to the recovered job.
	v, existing, err := s2.SubmitIdempotent(Spec{Experiment: "fig1", IdempotencyKey: "key-a"})
	if err != nil || !existing || v.ID != a.ID {
		t.Errorf("idempotent replay across restart: id %s existing %v err %v, want %s true nil",
			v.ID, existing, err, a.ID)
	}
	if m := scrape(t, s2); !strings.Contains(m, `serve_jobs_recovered_total{disposition="terminal"} 2`) {
		t.Errorf("metrics do not count the recovered terminal jobs:\n%s", m)
	}
}

// TestCheckpointResumeByteIdentical is the heart of the tentpole: a
// journal holding a job's submission and most of its completed cells is
// replayed by a fresh daemon with the real runner; only the missing
// cells re-run, and the recovered result is byte-identical to an
// uninterrupted `diskthru -experiment <name> -quick -j 1`. faults
// checkpoints replay cells; fig2 checkpoints computed-values cells.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each experiment twice")
	}
	for _, name := range []string{"faults", "fig2"} {
		t.Run(name, func(t *testing.T) { checkpointResume(t, name) })
	}
}

func checkpointResume(t *testing.T, name string) {
	opts := func() experiments.Options {
		o := experiments.Quick()
		o.Parallelism = 1
		return o
	}
	// Reference run, harvesting every cell's payload the same way a
	// journal-enabled daemon would have persisted them.
	type cell struct {
		id      experiments.CellID
		payload []byte
	}
	var cells []cell
	table, err := experiments.RunWithCellExec(name, opts(), func(id experiments.CellID, run func() ([]byte, error), _ func([]byte) error) error {
		payload, err := run()
		if err != nil {
			return err
		}
		cells = append(cells, cell{id, payload}) // Parallelism 1: no race
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	table.Format(&want)
	if len(cells) < 2 {
		t.Fatalf("%s produced %d checkpointable cells; need >= 2 for a partial checkpoint", name, len(cells))
	}

	// The journal a crashed daemon would leave: the job admitted,
	// started, and all but the last cell completed.
	spec := Spec{Experiment: name, Quick: true, Parallelism: 1}
	submitted := time.Now().Add(-time.Minute).Round(0)
	recs := []record{
		{Type: "submit", Job: "j000001", Spec: &spec, SubmittedAt: submitted},
		{Type: "start", Job: "j000001", At: submitted.Add(time.Second)},
	}
	journaled := len(cells) - 1
	for i := 0; i < journaled; i++ {
		id := cells[i].id
		recs = append(recs, record{Type: "cell", Job: "j000001", Cell: &id, Payload: cells[i].payload})
	}
	dir := t.TempDir()
	writeRecords(t, dir, recs)

	s, err := New(Config{QueueCap: 4, Workers: 1, StateDir: dir}) // real runner
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s)
	v := awaitJob(t, s, "j000001", 2*time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", v.State, v.Error)
	}
	if v.Result != want.String() {
		t.Fatalf("recovered result diverges from the uninterrupted run:\n--- recovered ---\n%s--- uninterrupted ---\n%s",
			v.Result, want.String())
	}
	if !v.Recovered || !v.SubmittedAt.Equal(submitted) {
		t.Errorf("recovered=%v submitted_at=%v, want true %v", v.Recovered, v.SubmittedAt, submitted)
	}
	if got := s.cellsReplayed.Load(); got != int64(journaled) {
		t.Errorf("cells replayed = %d, want %d", got, journaled)
	}
	m := scrape(t, s)
	if !strings.Contains(m, "serve_cells_replayed_total") {
		t.Errorf("metrics missing serve_cells_replayed_total:\n%s", m)
	}
	if !strings.Contains(m, `serve_jobs_recovered_total{disposition="resumed"} 1`) {
		t.Errorf("metrics do not count the resumed job:\n%s", m)
	}
	// The whole durability surface must satisfy the exposition linter.
	fams, err := metrics.Parse(strings.NewReader(m))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, lintErr := range metrics.Lint(fams) {
		t.Errorf("lint: %v", lintErr)
	}
}

// TestTornTailTolerated: a journal ending in a torn record — the
// SIGKILL-mid-append case — must not poison recovery: the good prefix
// replays, the tail is truncated, and the journal accepts new appends.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Experiment: "fig1"}
	writeRecords(t, dir, []record{
		{Type: "submit", Job: "j000001", Spec: &spec, SubmittedAt: time.Now().Round(0)},
	})
	// A torn frame: a length header promising more bytes than exist.
	f, err := os.OpenFile(filepath.Join(dir, journalFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	run, _ := instantRunner()
	s1, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v := awaitJob(t, s1, "j000001", 10*time.Second, terminal)
	if v.State != StateDone {
		t.Fatalf("job recovered from torn journal ended %s: %s", v.State, v.Error)
	}
	// The truncated journal must be appendable: a new job submitted now
	// must survive the next restart.
	b, err := s1.Submit(Spec{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, s1, b.ID, 10*time.Second, terminal)
	drainNow(t, s1)

	s2, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s2)
	for _, id := range []string{"j000001", b.ID} {
		if v, ok := s2.Get(id); !ok || v.State != StateDone {
			t.Errorf("job %s after second restart: known %v state %s, want done", id, ok, v.State)
		}
	}
}

// TestRecoveryRefusesMalformedSubmit: a journal whose submit record
// cannot be restored — no job id, no spec, not JSON at all, or a second
// submit for one job id — fails the boot with an error naming the state
// dir instead of panicking the daemon or running a job twice.
func TestRecoveryRefusesMalformedSubmit(t *testing.T) {
	for name, rec := range map[string]string{
		"no job id":   `{"type":"submit","job":"","spec":{"experiment":"fig1"}}`,
		"no spec":     `{"type":"submit","job":"j000001"}`,
		"undecodable": `{"type":"submit",`,
		"duplicate":   `{"type":"submit","job":"j000001","spec":{"experiment":"fig1"}}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			recs := []string{rec}
			if name == "duplicate" {
				recs = append(recs, rec)
			}
			writeRawRecords(t, dir, recs)
			run, _ := instantRunner()
			s, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
			if err == nil {
				drainNow(t, s)
				t.Fatalf("journal with a %s submit record was accepted", name)
			}
			if !strings.Contains(err.Error(), dir) {
				t.Errorf("error %q does not name the state dir", err)
			}
		})
	}
}

// TestForcedDrainJobsResurrectExactlyOnce is the graceful-drain
// persistence contract: a forced drain (SIGTERM deadline expired) with
// running and queued jobs leaves them unfinished-but-durable, a restart
// re-admits each exactly once, and once finished they stay terminal
// across further restarts.
func TestForcedDrainJobsResurrectExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 4)
	run, release := blockingRunner(started)
	defer release()
	s1, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 3)
	for _, exp := range []string{"fig1", "fig2", "fig3"} {
		v, err := s1.Submit(Spec{Experiment: exp})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	<-started // fig1 is running; fig2 and fig3 are queued
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before Drain starts: forced drain immediately
	if err := s1.Drain(ctx); err != context.Canceled {
		t.Fatalf("forced drain returned %v", err)
	}

	run2, ran := instantRunner()
	s2, err := New(Config{QueueCap: 4, Workers: 1, Runner: run2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.recoveredResumed != 3 {
		t.Fatalf("recovered %d resumed jobs, want all 3", s2.recoveredResumed)
	}
	for i, id := range ids {
		v := awaitJob(t, s2, id, 10*time.Second, terminal)
		if v.State != StateDone || !v.Recovered {
			t.Errorf("job %s ended %s (recovered %v), want done true", id, v.State, v.Recovered)
		}
		exp := []string{"fig1", "fig2", "fig3"}[i]
		if got := ran(exp); got != 1 {
			t.Errorf("experiment %s ran %d times after restart, want exactly 1", exp, got)
		}
	}
	if got := len(s2.List()); got != 3 {
		t.Fatalf("job table holds %d jobs after recovery, want 3 (no duplicates)", got)
	}
	drainNow(t, s2)

	// Their done records are durable now: a third boot restores them
	// terminal without running anything.
	run3, ran3 := instantRunner()
	s3, err := New(Config{QueueCap: 4, Workers: 1, Runner: run3, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s3)
	if s3.recoveredTerminal != 3 || s3.recoveredResumed != 0 {
		t.Errorf("third boot recovered terminal=%d resumed=%d, want 3 0",
			s3.recoveredTerminal, s3.recoveredResumed)
	}
	for _, exp := range []string{"fig1", "fig2", "fig3"} {
		if got := ran3(exp); got != 0 {
			t.Errorf("experiment %s re-ran %d times on third boot, want 0", exp, got)
		}
	}
}

// TestClientCancelStaysCanceled: unlike forced-drain cancellations, a
// client DELETE is journaled terminal and must not resurrect.
func TestClientCancelStaysCanceled(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 4)
	run, release := blockingRunner(started)
	defer release()
	s1, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := s1.Submit(Spec{Experiment: "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s1.Submit(Spec{Experiment: "fig2"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := s1.Cancel(queued.ID); !ok {
		t.Fatal("cancel of queued job failed")
	}
	release()
	awaitJob(t, s1, blocker.ID, 10*time.Second, terminal)
	drainNow(t, s1)

	run2, ran := instantRunner()
	s2, err := New(Config{QueueCap: 4, Workers: 1, Runner: run2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s2)
	v, ok := s2.Get(queued.ID)
	if !ok || v.State != StateCanceled {
		t.Fatalf("client-canceled job after restart: known %v state %s, want canceled", ok, v.State)
	}
	if got := ran("fig2"); got != 0 {
		t.Errorf("canceled job re-ran %d times, want 0", got)
	}
}

// TestIdempotentSubmissionAPI pins the HTTP surface: replay answers 200
// with the original view, a key reused with a different spec answers
// 409, and the Idempotency-Key header overrides the spec field.
func TestIdempotentSubmissionAPI(t *testing.T) {
	run, _ := instantRunner()
	h := newHarness(t, Config{QueueCap: 4, Workers: 1, Runner: run})

	spec := Spec{Experiment: "fig1", IdempotencyKey: "dup-1"}
	first := h.submit(spec)

	status, hdr, raw := h.request("POST", "/v1/jobs", spec)
	if status != http.StatusOK {
		t.Fatalf("replay status %d (%s), want 200", status, raw)
	}
	var v View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.ID != first.ID {
		t.Errorf("replay returned job %s, want original %s", v.ID, first.ID)
	}
	if loc := hdr.Get("Location"); loc != "/v1/jobs/"+first.ID {
		t.Errorf("replay Location %q", loc)
	}

	// Same key, different spec: conflict.
	status, _, raw = h.request("POST", "/v1/jobs", Spec{Experiment: "fig2", IdempotencyKey: "dup-1"})
	if status != http.StatusConflict {
		t.Errorf("key reuse with different spec: status %d (%s), want 409", status, raw)
	}

	// The header wins over the body field.
	req, err := http.NewRequest("POST", h.ts.URL+"/v1/jobs",
		strings.NewReader(`{"experiment":"fig1","idempotency_key":"dup-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "hdr-1")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("header-keyed submission: status %d, want 202 (new job, header overrides body)", resp.StatusCode)
	}
	if v.ID == first.ID {
		t.Error("header key did not override the body key")
	}
	if v.Spec.IdempotencyKey != "hdr-1" {
		t.Errorf("stored key %q, want header's hdr-1", v.Spec.IdempotencyKey)
	}
}

// TestJournalFailureRejectsAdmission: a job the journal cannot make
// durable is not accepted — the API answers 500 and the job table does
// not grow — so a client retry cannot double-admit.
func TestJournalFailureRejectsAdmission(t *testing.T) {
	dir := t.TempDir()
	run, _ := instantRunner()
	s, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s)
	a, err := s.Submit(Spec{Experiment: "fig1"})
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, s, a.ID, 10*time.Second, terminal)

	// Kill the journal out from under the server: every append now
	// fails, so admission must fail closed.
	if err := s.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(Spec{Experiment: "fig2"}); !errors.Is(err, ErrJournal) {
		t.Fatalf("submit with dead journal returned %v, want ErrJournal", err)
	}
	if got := len(s.List()); got != 1 {
		t.Fatalf("job table grew to %d after rejected admission, want 1", got)
	}
}
