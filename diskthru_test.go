package diskthru

import (
	"bytes"
	"math"
	"testing"
)

// syntheticFixture returns a small deterministic workload shared by the
// facade tests.
func syntheticFixture(t *testing.T, fileKB int) *Workload {
	t.Helper()
	w, err := SyntheticWorkload(SyntheticOptions{
		FileKB:      fileKB,
		Requests:    2000,
		FootprintMB: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Streams = 64
	return cfg
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Disks != 8 || cfg.CacheKB != 4096 || cfg.SegmentKB != 128 ||
		cfg.MaxSegments != 27 || cfg.StripeKB != 128 {
		t.Fatalf("defaults diverge from Table 1: %+v", cfg)
	}
	if cfg.CoalesceProb != 0.87 {
		t.Fatalf("coalesce prob = %v, paper uses 0.87", cfg.CoalesceProb)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Disks = 0 },
		func(c *Config) { c.StripeKB = 0 },
		func(c *Config) { c.StripeKB = 6 }, // not a block multiple
		func(c *Config) { c.CacheKB = 0 },
		func(c *Config) { c.SegmentKB = 0 },
		func(c *Config) { c.MaxSegments = 0 },
		func(c *Config) { c.HDCKB = -1 },
		func(c *Config) { c.HDCKB = c.CacheKB },
		func(c *Config) { c.CoalesceProb = 1.5 },
		func(c *Config) { c.Streams = -1 },
		func(c *Config) { c.System = System(42) },
	}
	// Non-finite times and rates: each can reach the event queue.
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = append(bad,
			func(c *Config) { c.ArrivalRate = x },
			func(c *Config) { c.SyncHDCSeconds = x },
			func(c *Config) { c.RequestTimeoutSeconds = x },
			func(c *Config) { c.CoalesceProb = x },
		)
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestSystemAndEnumNames(t *testing.T) {
	if Segm.String() != "Segm" || Block.String() != "Block" ||
		NoRA.String() != "No-RA" || FOR.String() != "FOR" {
		t.Fatal("system names diverge from the paper")
	}
	if LOOK.String() != "LOOK" || FCFS.String() != "FCFS" {
		t.Fatal("scheduler names wrong")
	}
	if PlannerPerfect.String() != "perfect" || PlannerHistory.String() != "history" {
		t.Fatal("planner names wrong")
	}
}

func TestRunProducesConsistentResult(t *testing.T) {
	w := syntheticFixture(t, 16)
	res, err := Run(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOTime <= 0 {
		t.Fatal("non-positive I/O time")
	}
	if len(res.PerDisk) != 8 {
		t.Fatalf("%d per-disk entries", len(res.PerDisk))
	}
	var reqd uint64
	for _, d := range res.PerDisk {
		reqd += d.RequestedBlocks
	}
	if reqd != res.RequestedBlocks {
		t.Fatal("per-disk requested blocks do not sum to the total")
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if res.HitRate < 0 || res.HitRate > 1 {
		t.Fatalf("hit rate %v", res.HitRate)
	}
	if res.BusUtilization <= 0 || res.BusUtilization > 1 {
		t.Fatalf("bus utilization %v", res.BusUtilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := syntheticFixture(t, 16)
	a, err := Run(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.IOTime != b.IOTime || a.Requests != b.Requests || a.MediaBlocks != b.MediaBlocks {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// The paper's central claim: FOR performs at least as well as the
// conventional controller across file sizes (section 6.2, Figure 3).
func TestFORNeverLosesToSegm(t *testing.T) {
	for _, kb := range []int{4, 16, 64, 128} {
		w := syntheticFixture(t, kb)
		res, err := Compare(w, testConfig(), []System{Segm, FOR})
		if err != nil {
			t.Fatal(err)
		}
		if res[1].IOTime > res[0].IOTime*1.02 {
			t.Errorf("%d KB: FOR %.3fs worse than Segm %.3fs", kb, res[1].IOTime, res[0].IOTime)
		}
	}
}

// FOR's gain must shrink as files grow (Figure 3's trend).
func TestFORGainShrinksWithFileSize(t *testing.T) {
	gain := func(kb int) float64 {
		w := syntheticFixture(t, kb)
		res, err := Compare(w, testConfig(), []System{Segm, FOR})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].IOTime / res[1].IOTime
	}
	small, large := gain(8), gain(128)
	if small <= large {
		t.Fatalf("gain at 8 KB (%.3f) not above gain at 128 KB (%.3f)", small, large)
	}
}

// No-RA beats blind read-ahead for small files but loses for large ones
// (the crossover of Figure 3).
func TestNoRACrossover(t *testing.T) {
	ratio := func(kb int) float64 {
		w := syntheticFixture(t, kb)
		res, err := Compare(w, testConfig(), []System{Segm, NoRA})
		if err != nil {
			t.Fatal(err)
		}
		return res[1].IOTime / res[0].IOTime
	}
	if r := ratio(8); r >= 1 {
		t.Fatalf("No-RA ratio at 8 KB = %.3f, want < 1", r)
	}
	if r := ratio(128); r <= 0.95 {
		t.Fatalf("No-RA ratio at 128 KB = %.3f, want ~>= 1", r)
	}
}

// FOR moves almost no useless blocks; blind read-ahead wastes most of its
// media traffic on 16-KB files.
func TestReadAheadWaste(t *testing.T) {
	w := syntheticFixture(t, 16)
	res, err := Compare(w, testConfig(), []System{Segm, FOR})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ReadAheadWaste() < 0.5 {
		t.Fatalf("Segm waste = %.3f, want > 0.5", res[0].ReadAheadWaste())
	}
	if res[1].ReadAheadWaste() > 0.2 {
		t.Fatalf("FOR waste = %.3f, want < 0.2", res[1].ReadAheadWaste())
	}
}

// HDC reduces I/O time on a skewed workload and reports a sensible hit
// rate (section 6.2, Figure 5).
func TestHDCImprovesSkewedWorkload(t *testing.T) {
	w, err := SyntheticWorkload(SyntheticOptions{
		FileKB: 16, Requests: 2000, FootprintMB: 256, ZipfAlpha: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	base, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hdc, err := Run(w, cfg.WithHDC(2048))
	if err != nil {
		t.Fatal(err)
	}
	if hdc.IOTime >= base.IOTime {
		t.Fatalf("HDC did not help: %.3f vs %.3f", hdc.IOTime, base.IOTime)
	}
	if hdc.HDCHitRate <= 0 || hdc.HDCHitRate > 1 {
		t.Fatalf("HDC hit rate %v", hdc.HDCHitRate)
	}
	if base.HDCHitRate != 0 {
		t.Fatal("HDC hit rate without HDC")
	}
}

// The history planner must underperform perfect knowledge, not beat it.
func TestHistoryPlannerNotBetterThanPerfect(t *testing.T) {
	w, err := SyntheticWorkload(SyntheticOptions{
		FileKB: 16, Requests: 2000, FootprintMB: 256, ZipfAlpha: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig().WithHDC(2048)
	perfect, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Planner = PlannerHistory
	history, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if history.HDCHitRate > perfect.HDCHitRate+1e-9 {
		t.Fatalf("history hit %.3f beats perfect %.3f", history.HDCHitRate, perfect.HDCHitRate)
	}
}

func TestWritesDiluteFORGain(t *testing.T) {
	gain := func(writes float64) float64 {
		w, err := SyntheticWorkload(SyntheticOptions{
			FileKB: 16, Requests: 2000, FootprintMB: 256, WriteFraction: writes,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Compare(w, testConfig(), []System{Segm, FOR})
		if err != nil {
			t.Fatal(err)
		}
		return res[0].IOTime / res[1].IOTime
	}
	if readOnly, writeHeavy := gain(0), gain(0.6); readOnly <= writeHeavy {
		t.Fatalf("gain with writes (%.3f) not below read-only gain (%.3f)", writeHeavy, readOnly)
	}
}

func TestStripingUnitAffectsIOTime(t *testing.T) {
	w := syntheticFixture(t, 16)
	times := map[int]float64{}
	for _, stripe := range []int{4, 128} {
		cfg := testConfig()
		cfg.StripeKB = stripe
		r, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[stripe] = r.IOTime
	}
	// Tiny striping units fragment every access across all disks; for
	// 16-KB whole-file reads the 128-KB unit must win.
	if times[128] >= times[4] {
		t.Fatalf("stripe=128KB (%.3f) not better than 4KB (%.3f)", times[128], times[4])
	}
}

func TestSchedulerAblation(t *testing.T) {
	w := syntheticFixture(t, 16)
	cfg := testConfig()
	cfg.Scheduler = FCFS
	fcfs, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scheduler = LOOK
	look, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if look.IOTime > fcfs.IOTime*1.05 {
		t.Fatalf("LOOK (%.3f) much worse than FCFS (%.3f)", look.IOTime, fcfs.IOTime)
	}
}

func TestVolumeExceedingArrayRejected(t *testing.T) {
	w := syntheticFixture(t, 16)
	cfg := testConfig()
	cfg.Disks = 2 // workload volume assumes the paper's 8-disk array
	if _, err := Run(w, cfg); err == nil {
		t.Fatal("oversized volume accepted")
	}
}

func TestWorkloadAccessors(t *testing.T) {
	w := syntheticFixture(t, 16)
	if w.Name() != "synthetic-16KB" {
		t.Fatalf("Name = %q", w.Name())
	}
	if w.Records() != 2000 {
		t.Fatalf("Records = %d", w.Records())
	}
	if w.AvgFileBlocks() != 4 {
		t.Fatalf("AvgFileBlocks = %d", w.AvgFileBlocks())
	}
	if w.Files() != 256*1024/16 {
		t.Fatalf("Files = %d", w.Files())
	}
	if w.WriteFraction() != 0 {
		t.Fatal("unexpected writes")
	}
	if w.Streams() != 128 {
		t.Fatalf("Streams = %d", w.Streams())
	}
	if w.FootprintBlocks() <= 0 {
		t.Fatal("no footprint")
	}
	counts := w.BlockAccessCounts(10)
	if len(counts) != 10 || counts[0] < counts[9] {
		t.Fatalf("access counts not ranked: %v", counts)
	}
}

func TestEncodeTraceRoundTripsBytes(t *testing.T) {
	w := syntheticFixture(t, 16)
	var buf bytes.Buffer
	if err := w.EncodeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 2000*13 {
		t.Fatalf("encoded trace suspiciously small: %d bytes", buf.Len())
	}
}

func TestServerWorkloadConstructors(t *testing.T) {
	web, err := WebWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if web.Name() != "web" || web.Streams() != 16 {
		t.Fatalf("web meta: %q/%d", web.Name(), web.Streams())
	}
	proxy, err := ProxyWorkload(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Name() != "proxy" || proxy.Streams() != 128 {
		t.Fatalf("proxy meta: %q/%d", proxy.Name(), proxy.Streams())
	}
	file, err := FileServerWorkload(0.002)
	if err != nil {
		t.Fatal(err)
	}
	if file.Name() != "file" || file.Streams() != 128 {
		t.Fatalf("file meta: %q/%d", file.Name(), file.Streams())
	}
	// A real-workload end-to-end run completes and produces sane output.
	res, err := Run(web, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOTime <= 0 || math.IsNaN(res.IOTime) {
		t.Fatalf("web run IOTime = %v", res.IOTime)
	}
}

func TestCompareOrdersResults(t *testing.T) {
	w := syntheticFixture(t, 16)
	res, err := Compare(w, testConfig(), []System{FOR, Segm})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("%d results", len(res))
	}
	if res[0].IOTime >= res[1].IOTime {
		t.Fatal("results not in requested system order")
	}
}

func TestFlushChargedToIOTime(t *testing.T) {
	w, err := SyntheticWorkload(SyntheticOptions{
		FileKB: 16, Requests: 1000, FootprintMB: 64, ZipfAlpha: 0.9, WriteFraction: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig().WithHDC(1024)
	withFlush, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.FlushHDCAtEnd = false
	without, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withFlush.IOTime < without.IOTime {
		t.Fatalf("flush made the run faster: %.4f vs %.4f", withFlush.IOTime, without.IOTime)
	}
}
