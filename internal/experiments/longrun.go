package experiments

import (
	"fmt"

	"diskthru"
)

// longRunRate is the aggregate arrival rate the longrun experiment
// replays at — comfortably below the 8-disk array's saturation point so
// response times are queueing-flavored but stable over long horizons.
const longRunRate = 400

// LongRun measures the constant-memory long-horizon path: an open-loop
// multi-tenant Poisson stream generated record by record (never
// materialized), replayed with streaming latency statistics, under the
// conventional controller and FOR. The makespan scales with
// Options.SynRequests so reduced option sets stay fast; BenchmarkLongRun
// (repo root) runs the same workload at fixed hour counts to pin the
// flat-heap guarantee.
func LongRun(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// Size the stream at ~2x the synthetic trace length: enough arrivals
	// for stable tail percentiles at every supported option scale.
	hours := float64(2*o.SynRequests) / (longRunRate * 3600)
	wr := newWorkload(o, func() (*diskthru.Workload, error) {
		return diskthru.LongRunWorkload(diskthru.LongRunOptions{
			Hours:         hours,
			RatePerSecond: longRunRate,
			Seed:          1 + o.Seed,
		})
	})
	t := &Table{
		ID:      "longrun",
		Title:   fmt.Sprintf("Open-loop longrun (%d req/s, %.2g simulated hours, streaming stats)", longRunRate, hours),
		XLabel:  "system",
		Columns: []string{"I/O time (s)", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"},
	}
	cfg := baseConfig()
	cfg.ArrivalRate = longRunRate
	systems := []diskthru.System{diskthru.Segm, diskthru.FOR}
	r := newRunner(o)
	cells := r.compare(wr, cfg, systems)
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, sys := range systems {
		l := cells[i].Latency
		t.AddRow(sys.String(), cells[i].IOTime,
			l.Mean*1000, l.P50*1000, l.P95*1000, l.P99*1000, l.Max*1000)
	}
	t.Note("records are generated on arrival and statistics stream into a fixed-size sketch: memory is independent of the makespan")
	t.Note("mean and max are exact; percentiles are log-bucket midpoints accurate to one bucket width (~4.4%% relative)")
	return t, nil
}
