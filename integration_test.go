package diskthru

import (
	"fmt"
	"math"
	"testing"
)

// Cross-cutting conservation and consistency checks over full runs.

func TestConservationAcrossSystems(t *testing.T) {
	w, err := SyntheticWorkload(SyntheticOptions{
		FileKB: 16, Requests: 1500, FootprintMB: 128, WriteFraction: 0.2, ZipfAlpha: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Streams = 64
	var prevRequested uint64
	for i, sys := range []System{Segm, Block, NoRA, FOR} {
		r, err := Run(w, cfg.WithSystem(sys))
		if err != nil {
			t.Fatal(err)
		}
		// The host asks for the same payload no matter the controller.
		if i > 0 && r.RequestedBlocks != prevRequested {
			t.Fatalf("%v: requested %d blocks, previous system %d", sys, r.RequestedBlocks, prevRequested)
		}
		prevRequested = r.RequestedBlocks
		// Media traffic covers at least the read misses; it can never be
		// less than requested minus what caches absorbed.
		if r.MediaBlocks == 0 {
			t.Fatalf("%v: no media traffic", sys)
		}
		// Per-disk accesses sum to issued requests.
		var acc uint64
		for _, d := range r.PerDisk {
			acc += d.Reads + d.Writes
		}
		if acc != r.Requests {
			t.Fatalf("%v: per-disk accesses %d != issued %d", sys, acc, r.Requests)
		}
		// Busy time per disk can never exceed the makespan.
		for di, d := range r.PerDisk {
			if d.BusySeconds > r.IOTime*1.000001 {
				t.Fatalf("%v: disk %d busy %v beyond makespan %v", sys, di, d.BusySeconds, r.IOTime)
			}
		}
	}
}

func TestMakespanBoundedByWorkAndCriticalPath(t *testing.T) {
	w := syntheticFixture(t, 16)
	cfg := testConfig()
	r, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total, max float64
	for _, d := range r.PerDisk {
		total += d.BusySeconds
		if d.BusySeconds > max {
			max = d.BusySeconds
		}
	}
	// The makespan is at least the busiest disk's work and at most the
	// serialized total plus slack.
	if r.IOTime < max {
		t.Fatalf("makespan %v below busiest disk %v", r.IOTime, max)
	}
	if r.IOTime > total+1 {
		t.Fatalf("makespan %v beyond serialized work %v", r.IOTime, total)
	}
}

// TestHDCNeverHurtsEquivalentConfigs checks a metamorphic relation: an
// HDC of 0 KB gives the same Result as no HDC, field for field, even
// with every HDC knob that acts only on a non-empty region turned on
// (the end-of-run and periodic flush_hdc, the history planner). It runs
// a read-only and a write-heavy workload under FOR and under Segm.
func TestHDCNeverHurtsEquivalentConfigs(t *testing.T) {
	writes, err := SyntheticWorkload(SyntheticOptions{
		FileKB: 16, Requests: 2000, FootprintMB: 256, WriteFraction: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []*Workload{syntheticFixture(t, 16), writes} {
		for _, sys := range []System{FOR, Segm} {
			cfg := testConfig().WithSystem(sys)
			cfg.FlushHDCAtEnd = false
			a, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			zero := cfg.WithHDC(0)
			zero.FlushHDCAtEnd, zero.SyncHDCSeconds, zero.Planner = true, 0.05, PlannerHistory
			b, err := Run(w, zero)
			if err != nil {
				t.Fatal(err)
			}
			// %#v prints NaN as NaN, so the closed loop's NaN latency
			// fields compare equal where reflect.DeepEqual would not.
			if ga, gb := fmt.Sprintf("%#v", a), fmt.Sprintf("%#v", b); ga != gb {
				t.Errorf("workload %d (%s)/%v: HDC=0 changed the run:\n%s\nvs\n%s", i, w.Name(), sys, ga, gb)
			}
		}
	}
}

func TestSeedChangesCoalescingOnly(t *testing.T) {
	w := syntheticFixture(t, 16)
	cfg := testConfig()
	cfg.CoalesceProb = 0.87
	a, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 999
	b, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different coalescing coin flips change request counts a little but
	// not the requested payload.
	if a.RequestedBlocks != b.RequestedBlocks {
		t.Fatalf("seed changed requested payload: %d vs %d", a.RequestedBlocks, b.RequestedBlocks)
	}
	if math.Abs(a.IOTime-b.IOTime)/a.IOTime > 0.1 {
		t.Fatalf("seed swung makespan by >10%%: %v vs %v", a.IOTime, b.IOTime)
	}
}

func TestAllServerWorkloadsRunUnderAllSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	builders := []func() (*Workload, error){
		func() (*Workload, error) { return WebWorkload(0.01) },
		func() (*Workload, error) { return ProxyWorkload(0.01) },
		func() (*Workload, error) { return FileServerWorkload(0.002) },
		func() (*Workload, error) { return MailWorkload(0.005) },
		func() (*Workload, error) { return MediaWorkload(0.01) },
		func() (*Workload, error) { return OLTPWorkload(0.002) },
	}
	for _, build := range builders {
		w, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range []System{Segm, FOR} {
			cfg := DefaultConfig().WithSystem(sys).WithHDC(64)
			r, err := Run(w, cfg)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name(), sys, err)
			}
			if r.IOTime <= 0 || math.IsNaN(r.IOTime) {
				t.Fatalf("%s/%v: IOTime %v", w.Name(), sys, r.IOTime)
			}
		}
	}
}
