package host

import (
	"testing"

	"diskthru/internal/array"
	"diskthru/internal/bus"
	"diskthru/internal/disk"
	"diskthru/internal/fault"
	"diskthru/internal/fslayout"
	"diskthru/internal/geom"
	"diskthru/internal/sched"
	"diskthru/internal/sim"
	"diskthru/internal/trace"
)

// faultRig is newRig with a per-disk injector built from one profile.
func faultRig(t *testing.T, nDisks, unitBlocks int, p *fault.Profile) *rig {
	t.Helper()
	s := sim.New()
	b := bus.New(s, bus.Ultra160())
	r := &rig{
		sim:     s,
		bus:     b,
		striper: array.NewStriper(nDisks, unitBlocks),
		layout:  fslayout.New(1 << 20),
		disks:   make([]*disk.Disk, nDisks),
	}
	for i := range r.disks {
		dc := disk.Config{
			Geom:         geom.Ultrastar36Z15(),
			Sched:        sched.LOOK,
			CacheBytes:   4 << 20,
			SegmentBytes: 128 << 10,
			MaxSegments:  27,
			Org:          disk.OrgSegment,
			ReadAhead:    disk.RABlind,
			Injector:     p.Injector(i),
		}
		d, err := disk.New(s, b, i, dc)
		if err != nil {
			t.Fatal(err)
		}
		r.disks[i] = d
	}
	return r
}

func TestWatchdogRedirectsAfterDiskDeath(t *testing.T) {
	p := &fault.Profile{Deaths: []fault.Death{{Disk: 1, At: 0.001}}}
	r := faultRig(t, 4, 32, p)
	for i := 0; i < 40; i++ {
		if _, err := r.layout.Alloc(8, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	tr := &trace.Trace{}
	for i := 0; i < 200; i++ {
		tr.Records = append(tr.Records, trace.Record{File: int32(i % 40), Blocks: 8})
	}
	h := r.host(t, Config{
		Streams: 8, CoalesceProb: 1,
		RequestTimeout: 0.5, DiskBlocks: geom.Ultrastar36Z15().Blocks(),
	})
	end := h.Replay(tr)
	if end <= 0 {
		t.Fatal("zero makespan")
	}
	if h.Active() != 0 {
		t.Fatalf("%d streams still stalled after replay despite redirect", h.Active())
	}
	if h.TimeoutCount(1) == 0 {
		t.Fatal("dead disk registered no timeouts")
	}
	if h.Redirects() == 0 {
		t.Fatal("no requests redirected to survivors")
	}
	if h.Aborted() != 0 {
		t.Fatalf("%d requests aborted with survivors available", h.Aborted())
	}
	// The dead disk served nothing after its death beyond the in-flight op;
	// survivors absorbed the redirected blocks.
	if r.disks[1].Stats().Dropped == 0 {
		t.Fatal("dead disk dropped nothing")
	}
	var survivorsBlocks uint64
	for _, di := range []int{0, 2, 3} {
		survivorsBlocks += r.disks[di].Stats().RequestedBlocks
	}
	if survivorsBlocks == 0 {
		t.Fatal("survivors served no blocks")
	}
}

func TestWatchdogDeterministic(t *testing.T) {
	run := func() (sim.Time, uint64, uint64) {
		p := &fault.Profile{Deaths: []fault.Death{{Disk: 0, At: 0.002}}}
		r := faultRig(t, 3, 16, p)
		for i := 0; i < 30; i++ {
			r.layout.Alloc(6, 0, nil)
		}
		tr := &trace.Trace{}
		for i := 0; i < 120; i++ {
			tr.Records = append(tr.Records, trace.Record{File: int32(i % 30), Blocks: 6})
		}
		h := r.host(t, Config{
			Streams: 4, CoalesceProb: 1,
			RequestTimeout: 0.3, DiskBlocks: geom.Ultrastar36Z15().Blocks(),
		})
		end := h.Replay(tr)
		return end, h.Redirects(), h.TimeoutCount(0)
	}
	e1, rd1, to1 := run()
	e2, rd2, to2 := run()
	if e1 != e2 || rd1 != rd2 || to1 != to2 {
		t.Fatalf("non-deterministic degraded replay: (%v,%d,%d) vs (%v,%d,%d)",
			e1, rd1, to1, e2, rd2, to2)
	}
}

func TestRequestTimeoutValidation(t *testing.T) {
	r := newRig(t, 2, 32, nil)
	for _, cfg := range []Config{
		{Streams: 1, RequestTimeout: -1},
		{Streams: 1, RequestTimeout: 0.5}, // missing DiskBlocks
	} {
		if _, err := New(r.sim, r.bus, r.disks, r.striper, r.layout, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	// Mirrored arrays are out of scope for the watchdog.
	r2 := newRig(t, 2, 32, nil)
	r2.striper.Disks = 1
	if _, err := New(r2.sim, r2.bus, r2.disks, r2.striper, r2.layout, Config{
		Streams: 1, Replicas: 2, RequestTimeout: 0.5, DiskBlocks: 1 << 20,
	}); err == nil {
		t.Error("mirrored watchdog config accepted")
	}
}

// TestOpenLoopRetiresEachRecordOnce replays open loop through the two
// fan-in paths a record's completions can take: watchdog redirects
// after a disk death, whose extents span several spare chunks, and
// mirrored writes. Every record must report exactly one response time
// and retire exactly once, or the pooled arrivals would be reused while
// still in flight.
func TestOpenLoopRetiresEachRecordOnce(t *testing.T) {
	const records = 300
	replay := func(t *testing.T, r *rig, files int, cfg Config) *Host {
		t.Helper()
		tr := &trace.Trace{}
		for i := 0; i < records; i++ {
			tr.Records = append(tr.Records, trace.Record{
				File: int32(i % files), Blocks: 24, Write: i%3 == 0,
			})
		}
		var latencies int
		cfg.OnLatency = func(l float64) {
			if l < 0 {
				t.Errorf("negative response time %v", l)
			}
			latencies++
		}
		h := r.host(t, cfg)
		if end := h.Replay(tr); end <= 0 {
			t.Fatal("zero makespan")
		}
		if latencies != records || h.Active() != 0 {
			t.Fatalf("%d response times and %d active after %d records", latencies, h.Active(), records)
		}
		return h
	}

	t.Run("redirects", func(t *testing.T) {
		p := &fault.Profile{Deaths: []fault.Death{{Disk: 1, At: 0.001}}}
		r := faultRig(t, 3, 4, p) // 24-block records put 8 blocks, two units, on each disk
		for i := 0; i < 40; i++ {
			if _, err := r.layout.Alloc(24, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		h := replay(t, r, 40, Config{
			Streams: 1, CoalesceProb: 1, ArrivalRate: 200,
			RequestTimeout: 0.5, DiskBlocks: geom.Ultrastar36Z15().Blocks(),
		})
		if h.Redirects() == 0 {
			t.Fatal("no requests redirected")
		}
	})

	t.Run("mirrored", func(t *testing.T) {
		r := newRig(t, 4, 4, nil) // two logical drives, two replicas each
		r.striper = array.NewStriper(2, 4)
		for i := 0; i < 40; i++ {
			if _, err := r.layout.Alloc(24, 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		replay(t, r, 40, Config{Streams: 1, CoalesceProb: 1, ArrivalRate: 200, Replicas: 2})
		if w := r.disks[0].Stats().Writes; w == 0 || w != r.disks[1].Stats().Writes {
			t.Fatalf("replica writes %d and %d, want equal and non-zero", w, r.disks[1].Stats().Writes)
		}
	})
}
