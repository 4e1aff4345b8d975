//go:build !race

// The race detector instruments allocations, so the counts below only
// hold in ordinary builds.

package diskthru_test

import (
	"math"
	"runtime/debug"
	"testing"

	"diskthru/internal/experiments"
)

// allocSlack is how far a driver's allocation count may rise above its
// budget before TestDriverAllocBudget fails.
const allocSlack = 1.10

// allocGCDrift is how far a driver's count under forced collection may
// stray from its count in the default pass, as a fraction of the latter.
const allocGCDrift = 0.005

// driverAllocs are the heap allocations of one serial Quick-scale run
// of each driver, measured on linux/amd64 with Go 1.24. Allocation
// counts are deterministic to within a few tenths of a percent, so they
// gate tightly where wall time cannot. A change that lowers a count for
// good should lower its budget too.
var driverAllocs = []struct {
	name   string
	allocs float64
}{
	{"table2", 13899},
	{"fig7", 17706},
	{"longrun", 980},
	{"fig6", 26816},
	{"ext-victim", 10640},
}

// TestDriverAllocBudget fails when a driver allocates more than
// allocSlack times its recorded budget: the Table 2 pipeline, the Web
// striping sweep, the open-loop long-run source, the synthetic write
// sweep, whose cost is mostly set-up (layouts, FOR bitmaps and HDC
// rankings), and the victim-cache sweep, which replays the server
// trace through the host buffer cache stage. The forced-gc pass runs
// the same table with a collection every few percent of heap growth,
// and each driver's count there must agree with the default pass to
// within allocGCDrift: no storage outlives its cell, so when the
// collector runs cannot change what a cell allocates.
func TestDriverAllocBudget(t *testing.T) {
	plain := map[string]float64{}
	budget := func(t *testing.T) {
		for _, d := range driverAllocs {
			t.Run(d.name, func(t *testing.T) {
				o := experiments.Quick()
				o.Parallelism = 1
				got := testing.AllocsPerRun(1, func() {
					if _, err := experiments.Run(d.name, o); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s: %.0f allocs/run (budget %.0f)", d.name, got, d.allocs)
				if limit := allocSlack * d.allocs; got > limit {
					t.Errorf("%s: %.0f allocs/run, above %.2f x budget %.0f = %.0f",
						d.name, got, allocSlack, d.allocs, limit)
				}
				if base, ok := plain[d.name]; !ok {
					plain[d.name] = got
				} else if math.Abs(got-base) > allocGCDrift*base {
					t.Errorf("%s: %.0f allocs/run under forced GC, %.0f in the default pass; want within %.1f%%",
						d.name, got, base, 100*allocGCDrift)
				}
			})
		}
	}
	budget(t)
	t.Run("forced-gc", func(t *testing.T) {
		defer debug.SetGCPercent(debug.SetGCPercent(5))
		budget(t)
	})
}
