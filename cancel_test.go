package diskthru

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"diskthru/internal/probe"
)

// longFixture is a replay big enough to be mid-flight when the test
// cancels it (hundreds of milliseconds of wall time).
func longFixture(t *testing.T) *Workload {
	t.Helper()
	w, err := SyntheticWorkload(SyntheticOptions{
		FileKB:      8,
		Requests:    100000,
		FootprintMB: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, syntheticFixture(t, 8), testConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextNilMatchesRun(t *testing.T) {
	w := syntheticFixture(t, 8)
	want, err := Run(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(nil, w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Formatted comparison, not DeepEqual: empty latency summaries carry
	// NaN, which DeepEqual treats as unequal to itself.
	if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
		t.Fatal("RunContext(nil) diverges from Run")
	}
}

// TestRunContextCancelStopsReplayPromptly cancels a long replay
// mid-flight and requires it to stop within a small bound, leaving no
// goroutines behind (the engine polls the context between event
// batches; nothing is spawned). Run under -race by `make check`.
func TestRunContextCancelStopsReplayPromptly(t *testing.T) {
	w := longFixture(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, w, testConfig())
		errc <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the replay get going
	cancel()
	start := time.Now()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replay did not stop within 5s of cancellation")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("replay took %v to notice cancellation", d)
	}
	// The runner goroutine above has exited; nothing else may linger.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// tripWriter buffers one telemetry sink and calls trip before its first
// write lands.
type tripWriter struct {
	buf  bytes.Buffer
	trip func()
}

func (w *tripWriter) Write(p []byte) (int, error) {
	if w.buf.Len() == 0 {
		w.trip()
	}
	return w.buf.Write(p)
}

// doneCtx is cancelled when done closes; replay only polls Done and Err.
type doneCtx struct {
	context.Context
	done chan struct{}
}

func (c *doneCtx) Done() <-chan struct{} { return c.done }

func (c *doneCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestCancelledReplayMarksTelemetry cancels a sampled, traced Web replay
// once both telemetry sinks hold lines from it: each then ends with one
// terminal "cancelled" record naming the run. A completed run writes no
// such record.
func TestCancelledReplayMarksTelemetry(t *testing.T) {
	w := liveFixture(t)
	run := func(ctx context.Context, trip func()) (trace, metrics string, err error) {
		tw, mw := &tripWriter{trip: trip}, &tripWriter{trip: trip}
		cfg := DefaultConfig()
		cfg.Telemetry = probe.NewTelemetry(tw, mw, 0.01)
		_, err = RunContext(ctx, w, cfg)
		return tw.buf.String(), mw.buf.String(), err
	}
	trace, metrics, err := run(context.Background(), func() {})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(trace, `"cancelled"`) || strings.Contains(metrics, probe.CancelledTime) {
		t.Fatal("a completed run carries a cancelled marker")
	}

	ctx := &doneCtx{Context: context.Background(), done: make(chan struct{})}
	sinks := 2
	trace, metrics, err = run(ctx, func() {
		if sinks--; sinks == 0 {
			close(ctx.done) // the engine's next poll cancels the replay
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sinks > 0 {
		t.Fatal("the run finished before both sinks held lines from it")
	}
	traceLines := strings.Split(strings.TrimSuffix(trace, "\n"), "\n")
	var first struct{ Run string }
	if err := json.Unmarshal([]byte(traceLines[0]), &first); err != nil || first.Run == "" {
		t.Fatalf("first trace line %q: %v", traceLines[0], err)
	}
	if got, want := traceLines[len(traceLines)-1], `{"run":"`+first.Run+`","cancelled":true}`; got != want {
		t.Fatalf("last trace line = %s, want %s", got, want)
	}
	rows, err := csv.NewReader(strings.NewReader(metrics)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last[0] != first.Run || last[1] != probe.CancelledTime || strings.Join(last[2:], "") != "" {
		t.Fatalf("last metrics row = %q, want %s,%s and empty columns", last, first.Run, probe.CancelledTime)
	}
	if n := strings.Count(trace, `"cancelled"`) + strings.Count(metrics, probe.CancelledTime); n != 2 {
		t.Fatalf("%d cancelled markers, want one per sink", n)
	}
}
