package fleet

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"diskthru/internal/experiments"
	"diskthru/internal/serve"
)

// tinyOpts is the smallest scale the experiments tests use.
func tinyOpts() experiments.Options {
	return experiments.Options{
		SynRequests: 1200, WebScale: 0.012, ProxyScale: 0.012, FileScale: 0.0015,
	}
}

// scrapeMetric sums one un-labeled (or exactly-labeled) series across
// daemon /metrics endpoints.
func scrapeMetric(t *testing.T, endpoints []string, series string) float64 {
	t.Helper()
	var sum float64
	for _, ep := range endpoints {
		resp, err := http.Get(ep + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if !strings.HasPrefix(line, series+" ") {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series+" ")), 64)
			if err != nil {
				t.Fatalf("unparsable metric line %q: %v", line, err)
			}
			sum += v
		}
	}
	return sum
}

// TestFleetDegradedOneCellPerSystem: the degraded driver's fault
// schedule derives from its healthy replay, and both replays of a
// system run inside one cell, so the fleet sweep is exactly one
// dispatch per system — three cells, no second round — and the merged
// table is byte-identical to the single-node serial run.
func TestFleetDegradedOneCellPerSystem(t *testing.T) {
	local := tinyOpts()
	local.Parallelism = 1
	want, err := experiments.Run("degraded", local)
	if err != nil {
		t.Fatal(err)
	}
	endpoints := bootDaemonsCfg(t, 2, nil, serve.Config{QueueCap: 16, Workers: 1})
	c, err := New(Config{Endpoints: endpoints, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), "degraded", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("fleet table differs from single-node run:\n--- single ---\n%s--- fleet ---\n%s",
			want, got)
	}
	if n := scrapeMetric(t, endpoints, "diskthru_jobs_submitted_total"); n != 3 {
		t.Errorf("daemons admitted %v cell jobs, want 3", n)
	}
	if n, l := c.completed.Value(), c.local.Value(); n != 3 || l != 0 {
		t.Errorf("coordinator completed %v cells remotely and %v locally, want 3 and 0", n, l)
	}
}
