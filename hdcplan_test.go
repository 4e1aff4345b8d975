package diskthru

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"diskthru/internal/array"
	"diskthru/internal/host"
	"diskthru/internal/workload"
)

// A run installs the plan host.PlanHDC makes over its planner's trace.
// The workload ranks that trace once per planner and every later plan
// reuses the ranking, whatever its region size or array.
func TestHDCPlanMemoMatchesPlanHDC(t *testing.T) {
	w := mirroredFixture(t)
	perfect := DefaultConfig().WithHDC(1024)
	history := perfect
	history.Planner = PlannerHistory
	coop := perfect
	coop.Disks, coop.Mirrored, coop.CoopHDC = 8, true, true

	s := array.NewStriper(4, perfect.StripeKB<<10/workload.BlockSize)
	perDisk := perfect.HDCKB << 10 / workload.BlockSize
	plans := map[string][][]int64{}
	for _, tc := range []struct {
		name   string
		cfg    Config
		blocks int // pinned per logical disk
	}{
		{"perfect", perfect, perDisk},
		{"history", history, perDisk},
		{"coop", coop, 2 * perDisk},
	} {
		want := host.PlanHDC(planningTrace(w.inner.Trace, tc.cfg.Planner), w.inner.Layout, s, tc.blocks)
		for pass := 0; pass < 2; pass++ {
			got := w.hdcPlan(tc.cfg, s, perDisk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s pass %d: memoized plan differs from host.PlanHDC", tc.name, pass)
			}
		}
		plans[tc.name] = want
	}
	if reflect.DeepEqual(plans["perfect"], plans["history"]) {
		t.Fatal("perfect and history plans coincide; the fixture cannot tell the planners apart")
	}
	if a, b := w.rankedBlocks(PlannerPerfect), w.rankedBlocks(PlannerPerfect); &a[0] != &b[0] {
		t.Fatal("the perfect ranking was recomputed instead of reused")
	}
}

// Concurrent HDC runs share one workload's rankings: each must report
// exactly what the same run reports alone on a fresh workload. Run
// under -race, this also checks the ranking is built once and only
// read afterwards.
func TestConcurrentHDCRunsShareWorkload(t *testing.T) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = testConfig().WithHDC(512 * (1 + i%4))
		if i%2 == 1 {
			cfgs[i].Planner = PlannerHistory
		}
	}
	want := make([]Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := Run(syntheticFixture(t, 16), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	shared := syntheticFixture(t, 16)
	got := make([]Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(shared, cfg)
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		// Printed, not DeepEqual: a closed-loop Result's latency
		// fields are NaN. %v prints each float exactly.
		if g, w := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]); g != w {
			t.Errorf("run %d (%s, %d KB HDC) on the shared workload differs from a fresh one:\n got %s\nwant %s",
				i, cfgs[i].Planner, cfgs[i].HDCKB, g, w)
		}
	}
}
