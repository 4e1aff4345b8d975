package diskthru

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"testing"

	"diskthru/internal/fault"
	"diskthru/internal/probe"
)

func liveFixture(t *testing.T) *Workload {
	t.Helper()
	w, err := WebWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunLiveBasics(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig()
	cfg.StripeKB = 16
	r, err := RunLive(w, cfg, LiveOptions{BufferCacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.IOTime <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if r.ServerAccesses == 0 {
		t.Fatal("no server accesses recorded")
	}
	if r.BufferCacheHitRate <= 0 || r.BufferCacheHitRate >= 1 {
		t.Fatalf("buffer cache hit rate = %v", r.BufferCacheHitRate)
	}
	if r.Absorbed == 0 {
		t.Fatal("no record was fully absorbed by the cache")
	}
	if r.VictimInserts != 0 {
		t.Fatal("victim inserts without the victim policy")
	}
}

func TestRunLiveBiggerCacheAbsorbsMore(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig()
	run := func(mb int) LiveResult {
		r, err := RunLive(w, cfg, LiveOptions{BufferCacheMB: mb})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	small, big := run(2), run(64)
	if big.BufferCacheHitRate <= small.BufferCacheHitRate {
		t.Fatalf("bigger cache hit rate %v not above %v",
			big.BufferCacheHitRate, small.BufferCacheHitRate)
	}
	if big.IOTime >= small.IOTime {
		t.Fatalf("bigger cache not faster: %v vs %v", big.IOTime, small.IOTime)
	}
}

func TestRunLiveVictimPolicy(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig().WithHDC(256)
	cfg.StripeKB = 16
	static, err := RunLive(w, cfg, LiveOptions{BufferCacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := RunLive(w, cfg, LiveOptions{BufferCacheMB: 4, VictimHDC: true})
	if err != nil {
		t.Fatal(err)
	}
	if victim.VictimInserts == 0 {
		t.Fatal("victim policy inserted nothing")
	}
	if victim.HDCHitRate <= 0 {
		t.Fatal("victim region never hit")
	}
	// The victim cache adapts to the live eviction stream; it should at
	// least be competitive with the static plan.
	if victim.IOTime > static.IOTime*1.1 {
		t.Fatalf("victim policy much slower than static: %v vs %v",
			victim.IOTime, static.IOTime)
	}
}

func TestRunLiveRejectsMirroring(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig()
	cfg.Mirrored = true
	if _, err := RunLive(w, cfg, LiveOptions{}); err == nil {
		t.Fatal("live mode accepted mirroring")
	}
}

func TestRunLiveDeterministic(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig().WithHDC(128)
	opts := LiveOptions{BufferCacheMB: 4, VictimHDC: true}
	a, err := RunLive(w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLive(w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.IOTime != b.IOTime || a.VictimInserts != b.VictimInserts {
		t.Fatalf("non-deterministic live replay: %+v vs %+v", a.Result.IOTime, b.Result.IOTime)
	}
}

func TestRunLiveFORWorksToo(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig()
	cfg.StripeKB = 16
	segm, err := RunLive(w, cfg, LiveOptions{BufferCacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	forr, err := RunLive(w, cfg.WithSystem(FOR), LiveOptions{BufferCacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if forr.IOTime >= segm.IOTime {
		t.Fatalf("FOR (%v) not faster than Segm (%v) in live mode", forr.IOTime, segm.IOTime)
	}
}

// TestRunLiveDegradedMode kills a disk halfway through a live replay
// armed with a request timeout: the watchdog must detect the death and
// re-home its requests, and the replay must still retire every record.
func TestRunLiveDegradedMode(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig()
	cfg.StripeKB = 16
	opts := LiveOptions{BufferCacheMB: 4}
	healthy, err := RunLive(w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &fault.Profile{Deaths: []fault.Death{{Disk: 2, At: healthy.IOTime * 0.5}}}
	cfg.RequestTimeoutSeconds = 1.0
	degraded, err := RunLive(w, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Timeouts == 0 || degraded.Redirects == 0 {
		t.Fatalf("timeouts = %d, redirects = %d; the watchdog never fired",
			degraded.Timeouts, degraded.Redirects)
	}
	// A closed-loop replay stamps its makespan only once every stream
	// has retired its last record, so a stuck record leaves it at zero.
	if degraded.IOTime <= healthy.IOTime*0.5 {
		t.Fatalf("degraded makespan %v ends before the disk died (%v): records left unretired",
			degraded.IOTime, healthy.IOTime*0.5)
	}
}

// TestRunLiveOpenLoopLatency replays the server trace open-loop: every
// record that sent at least one request to the array reports one
// response time, and absorbed records report none.
func TestRunLiveOpenLoopLatency(t *testing.T) {
	w := liveFixture(t)
	cfg := DefaultConfig()
	cfg.ArrivalRate = 200
	r, err := RunLive(w, cfg, LiveOptions{BufferCacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Absorbed == 0 {
		t.Fatal("no record absorbed; the check below would not tell the two counts apart")
	}
	if want := int(r.ServerAccesses - r.Absorbed); r.Latency.N != want {
		t.Fatalf("Latency.N = %d, want %d (%d records, %d absorbed)",
			r.Latency.N, want, r.ServerAccesses, r.Absorbed)
	}
}

// firedCtx is a context whose Done channel is already closed but whose
// first Err call reports nil, so a run passes its up-front check and is
// then cancelled by the replay's own polling.
type firedCtx struct {
	context.Context
	done  chan struct{}
	calls int
}

func (c *firedCtx) Done() <-chan struct{} { return c.done }

func (c *firedCtx) Err() error {
	c.calls++
	if c.calls == 1 {
		return nil
	}
	return context.Canceled
}

// TestRunLiveContextCancelled cancels a live replay mid-run: it returns
// the context's error and no result, and its scope never finishes, so
// the metrics it has not yet spilled are dropped. The sampling interval
// is coarse enough that the whole run's rows fit one unspilled batch.
func TestRunLiveContextCancelled(t *testing.T) {
	w := liveFixture(t)
	run := func(ctx context.Context) (LiveResult, int, error) {
		cfg := DefaultConfig()
		var metricsBuf bytes.Buffer
		cfg.Telemetry = probe.NewTelemetry(nil, &metricsBuf, 0.5)
		r, err := RunLiveContext(ctx, w, cfg, LiveOptions{BufferCacheMB: 4})
		return r, metricsBuf.Len(), err
	}
	if _, n, err := run(context.Background()); err != nil || n == 0 {
		t.Fatalf("uncancelled run: %d metrics bytes, err %v", n, err)
	}
	ctx := &firedCtx{Context: context.Background(), done: make(chan struct{})}
	close(ctx.done)
	r, n, err := run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ctx.calls < 2 {
		t.Fatal("the run never started; the cancellation was not mid-replay")
	}
	if r.IOTime != 0 || r.ServerAccesses != 0 || r.PerDisk != nil {
		t.Fatalf("cancelled run returned a result: %+v", r)
	}
	if n != 0 {
		t.Fatalf("cancelled run exported %d metrics bytes", n)
	}
}

// TestRunLiveSamplesHostCache: only a replay with the buffer cache in
// the loop fills the metrics CSV's host_hits and host_misses columns.
func TestRunLiveSamplesHostCache(t *testing.T) {
	w := liveFixture(t)
	columns := func(live bool) (hits, misses []string) {
		cfg := DefaultConfig()
		var metricsBuf bytes.Buffer
		cfg.Telemetry = probe.NewTelemetry(nil, &metricsBuf, 0.01)
		var err error
		if live {
			_, err = RunLive(w, cfg, LiveOptions{BufferCacheMB: 4})
		} else {
			_, err = Run(w, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(&metricsBuf).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) < 2 {
			t.Fatalf("live=%v: metrics CSV has no data rows", live)
		}
		col := map[string]int{}
		for j, name := range rows[0] {
			col[name] = j
		}
		for _, row := range rows[1:] {
			hits = append(hits, row[col["host_hits"]])
			misses = append(misses, row[col["host_misses"]])
		}
		return hits, misses
	}
	hits, misses := columns(true)
	for i := range hits {
		if hits[i] == "" || misses[i] == "" {
			t.Fatalf("RunLive row %d: host_hits %q, host_misses %q", i, hits[i], misses[i])
		}
	}
	hits, misses = columns(false)
	for i := range hits {
		if hits[i] != "" || misses[i] != "" {
			t.Fatalf("Run row %d: host_hits %q, host_misses %q, want empty", i, hits[i], misses[i])
		}
	}
}
