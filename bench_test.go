package diskthru_test

// The driver-level benchmark harness lives in bench/ (see
// bench/README.md); the packages keep their own micro-benchmarks.

import (
	"runtime"
	"testing"

	"diskthru"
)

// BenchmarkLongRun pins the tentpole guarantee of the constant-memory
// path: simulation memory is independent of the makespan. It replays
// the longrun source workload (generated arrivals, spill-to-writer off,
// the streaming statistics every source workload gets) at 1x and 10x
// the simulated horizon and
// requires the live heap after the long run to stay within 10% of the
// short one — O(1) in simulated hours, not O(makespan). The two heap
// readings and their ratio are reported as custom metrics. It is the
// flat-heap gate `make bench-long`, part of `make check`.
func BenchmarkLongRun(b *testing.B) {
	const rate = 400
	const baseHours = 0.02 // 10x = 0.2 simulated hours = 288k arrivals
	run := func(hours float64) uint64 {
		w, err := diskthru.LongRunWorkload(diskthru.LongRunOptions{
			Hours:         hours,
			RatePerSecond: rate,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := diskthru.DefaultConfig()
		cfg.ArrivalRate = rate
		res, err := diskthru.Run(w, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Latency.N == 0 {
			b.Fatal("open-loop run reported no latencies")
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var h1, h10 uint64
	for i := 0; i < b.N; i++ {
		h1 = run(baseHours)
		h10 = run(10 * baseHours)
	}
	ratio := float64(h10) / float64(h1)
	b.ReportMetric(float64(h1)/(1<<20), "heap1xMB")
	b.ReportMetric(float64(h10)/(1<<20), "heap10xMB")
	b.ReportMetric(ratio, "heapRatio")
	if ratio > 1.10 {
		b.Fatalf("heap grew %.2fx from 1x to 10x makespan; want <= 1.10", ratio)
	}
}
