//go:build !race

// The race detector instruments allocations, so the counts below only
// hold in ordinary builds.

package host

import (
	"testing"

	"diskthru/internal/dist"
	"diskthru/internal/trace"
)

// TestOpenLoopAllocationsFlat replays n and 4n records open loop below
// saturation. Arrivals are pooled and their events bound once, so the
// allocations of a whole replay must not grow with the record count.
func TestOpenLoopAllocationsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		rng := dist.NewRand(1)
		tr := &trace.Trace{}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(rng.Intn(100)), Blocks: 4})
		}
		return testing.AllocsPerRun(3, func() {
			r := newRig(t, 2, 32, nil)
			for i := 0; i < 100; i++ {
				if _, err := r.layout.Alloc(4, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			h := r.host(t, Config{Streams: 1, CoalesceProb: 1, ArrivalRate: 100,
				OnLatency: func(float64) {}})
			h.Replay(tr)
		})
	}
	const n = 2000
	small, large := allocs(n), allocs(4*n)
	t.Logf("%d records: %.0f allocs; %d records: %.0f allocs", n, small, 4*n, large)
	if extra := large - small; extra > n/100 {
		t.Fatalf("%.0f more allocations for %d more records; the open loop allocates per record", extra, 3*n)
	}
}
