package diskthru

import (
	"math"
	"testing"

	"diskthru/internal/host"
	"diskthru/internal/stats"
)

// TestStreamSummaryMatchesExactSummary feeds one open-loop replay's
// response times to both latency summarizers — the streaming sketch a
// source workload gets and the exact two-pass summary a materialized
// trace gets — and pins the documented contract: count, mean and max
// are bit-identical (the sketch embeds the same exact accumulator), and
// each percentile lands within one sketch bucket of the exact path's
// histogram estimate plus that histogram's own bucket.
func TestStreamSummaryMatchesExactSummary(t *testing.T) {
	w, err := SyntheticWorkload(SyntheticOptions{FileKB: 16, Requests: 3000, ZipfAlpha: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	r, err := buildRig(w, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var latencies []float64
	h, err := host.New(r.sim, r.bus, r.disks, r.striper, w.inner.Layout, host.Config{
		Streams:      1,
		CoalesceProb: cfg.CoalesceProb,
		Seed:         cfg.Seed,
		ArrivalRate:  500,
		OnLatency:    func(v float64) { latencies = append(latencies, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Replay(w.inner.Trace)
	if len(latencies) != w.Records() {
		t.Fatalf("replay reported %d latencies for %d records", len(latencies), w.Records())
	}

	exact := summarizeLatencies(latencies)
	var sketch stats.StreamSummary
	for _, v := range latencies {
		sketch.Observe(v)
	}
	stream := summarizeStream(&sketch)

	if stream.N != exact.N {
		t.Fatalf("N: stream %d, exact %d", stream.N, exact.N)
	}
	if stream.Mean != exact.Mean || stream.Max != exact.Max {
		t.Fatalf("moments diverge: stream mean %v max %v, exact mean %v max %v",
			stream.Mean, stream.Max, exact.Mean, exact.Max)
	}
	// The exact path buckets percentiles too (stats.Histogram, 4096 over
	// [0, max]); the allowed gap is one bucket of each estimator.
	histWidth := exact.Max * (1 + 1e-9) / 4096
	for _, q := range []struct {
		name          string
		stream, exact float64
	}{
		{"p50", stream.P50, exact.P50},
		{"p95", stream.P95, exact.P95},
		{"p99", stream.P99, exact.P99},
	} {
		tol := sketch.BucketWidth(q.exact) + histWidth
		if math.Abs(q.stream-q.exact) > tol {
			t.Errorf("%s: stream %v vs exact %v exceeds tolerance %v",
				q.name, q.stream, q.exact, tol)
		}
	}
}
