package experiments

import (
	"fmt"
	"math"

	"diskthru"
	"diskthru/internal/geom"
	"diskthru/internal/model"
)

// ExtRAID1 evaluates RAID-1 mirroring (section 2.2's redundancy) and the
// cooperative-HDC policy the paper sketches as future work: a mirrored
// pair splits its HDC plan so the two controllers pin disjoint halves
// and reads route to the replica holding the pin.
func ExtRAID1(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	// The mirrored configurations halve usable capacity, so this
	// workload lays out on a 4-disk volume.
	wr := newWorkload(o, func() (*diskthru.Workload, error) {
		return diskthru.SyntheticWorkload(diskthru.SyntheticOptions{
			FileKB:        16,
			Requests:      o.SynRequests,
			ZipfAlpha:     0.8,
			WriteFraction: 0.1,
			Seed:          1 + o.Seed,
			VolumeBlocks:  4 * 4718560,
		})
	})
	t := &Table{
		ID:      "ext-raid1",
		Title:   "RAID-1 mirroring and cooperative HDC (16-KB files, alpha=0.8, 10% writes)",
		XLabel:  "array",
		Columns: []string{"I/O time (s)", "HDC hit%"},
	}
	base := baseConfig().WithHDC(1024)
	// Striped only: 4 disks so usable capacity matches the mirrored runs.
	plain := base
	plain.Disks = 4
	mirrored := base
	mirrored.Disks = 8
	mirrored.Mirrored = true
	coop := mirrored
	coop.CoopHDC = true
	run := newRunner(o)
	cells := []struct {
		label string
		res   *diskthru.Result
	}{
		{"4 disks striped", run.run(wr, plain)},
		{"4x2 mirrored", run.run(wr, mirrored)},
		{"4x2 coop-HDC", run.run(wr, coop)},
	}
	if err := run.wait(); err != nil {
		return nil, err
	}
	for _, c := range cells {
		t.AddRow(c.label, c.res.IOTime, c.res.HDCHitRate*100)
	}
	t.Note("mirroring adds a read replica per pair (reads balance, writes double); cooperative HDC doubles distinct pinned blocks")
	return t, nil
}

// ExtSyncCost measures the paper's claim that periodic 30-second
// flush_hdc syncs change overall throughput by less than 1% (section
// 6.1), on a write-heavy skewed workload where HDC absorbs many writes.
func ExtSyncCost(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.8, 0.3) })
	t := &Table{
		ID:      "ext-sync",
		Title:   "Periodic flush_hdc cost (16-KB files, alpha=0.8, 30% writes, HDC=2MB)",
		XLabel:  "sync",
		Columns: []string{"I/O time (s)", "delta%"},
	}
	cfg := baseConfig().WithHDC(2048)
	periods := []float64{30, 5, 1}
	r := newRunner(o)
	end := r.run(wr, cfg)
	cells := make([]*diskthru.Result, len(periods))
	for i, period := range periods {
		c := cfg
		c.SyncHDCSeconds = period
		cells[i] = r.run(wr, c)
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	t.AddRow("end-of-run only", end.IOTime, 0)
	for i, period := range periods {
		t.AddRow(fmt.Sprintf("every %.0fs", period),
			cells[i].IOTime, (cells[i].IOTime/end.IOTime-1)*100)
	}
	t.Note("paper section 6.1: 30-second periodic syncs cost < 1%% across all simulations")
	return t, nil
}

// ExtIssueMode re-runs the Figure 4 stream sweep with sequential
// per-stream dispatch — the synchronous-read() pattern that exposes
// blind read-ahead segments to eviction between a stream's requests and
// reproduces the paper's growing FOR gains.
func ExtIssueMode(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.4, 0) })
	t := &Table{
		ID:      "ext-issue",
		Title:   "FOR vs Segm under batched and sequential dispatch (16-KB files)",
		XLabel:  "streams",
		Columns: []string{"FOR (batched)", "FOR (sequential)"},
	}
	streamCounts := []int{64, 256, 1024}
	r := newRunner(o)
	type issueRow struct{ batched, seq []*diskthru.Result }
	rows := make([]issueRow, len(streamCounts))
	for i, streams := range streamCounts {
		cfg := baseConfig()
		cfg.Streams = streams
		// Uncoalesced block-at-a-time requests are where dispatch mode
		// matters: sequential issue leaves a window between a stream's
		// requests in which other streams can evict its segment.
		cfg.CoalesceProb = 0
		rows[i].batched = r.compare(wr, cfg,
			[]diskthru.System{diskthru.Segm, diskthru.FOR})
		cfg.SequentialIssue = true
		rows[i].seq = r.compare(wr, cfg,
			[]diskthru.System{diskthru.Segm, diskthru.FOR})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, streams := range streamCounts {
		row := rows[i]
		t.AddRow(fmt.Sprintf("%d", streams),
			row.batched[1].IOTime/row.batched[0].IOTime,
			row.seq[1].IOTime/row.seq[0].IOTime)
	}
	t.Note("values are FOR's I/O time normalized to Segm under the same dispatch mode; requests are uncoalesced (block at a time)")
	return t, nil
}

// Validation reproduces the spirit of the paper's simulator validation
// (section 6.1): micro-benchmarks of small random reads and writes,
// compared against the closed-form service-time model
// T(r) = seek + rot + r*S/xfer. The paper validated against a physical
// drive within 8% (reads) and 3% (writes); without the hardware we
// check the simulator against the model that drive obeys.
func Validation(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "validation",
		Title:   "Micro-benchmark: simulated vs closed-form service time (ms/op)",
		XLabel:  "benchmark",
		Columns: []string{"simulated", "model", "error%"},
	}
	g := geom.Ultrastar36Z15()
	benches := []struct {
		name   string
		write  bool
		blocks int
	}{
		{"4-KB random reads", false, 1},
		{"16-KB random reads", false, 4},
		{"4-KB random writes", true, 1},
		{"16-KB random writes", true, 4},
	}
	r := newRunner(o)
	cells := make([]*diskthru.Result, len(benches))
	for i, bench := range benches {
		bench := bench
		wr := newWorkload(o, func() (*diskthru.Workload, error) {
			return diskthru.SyntheticWorkload(diskthru.SyntheticOptions{
				FileKB:        bench.blocks * 4,
				Requests:      2000,
				ZipfAlpha:     0.001, // uniform random placement
				WriteFraction: boolTo01(bench.write),
				Seed:          7 + o.Seed,
			})
		})
		cfg := diskthru.DefaultConfig()
		cfg.Streams = 8            // one outstanding op per disk: no LOOK shortening
		cfg.CoalesceProb = 1       // whole-extent requests, one media op each
		cfg.System = diskthru.NoRA // media op moves exactly the requested blocks
		cells[i] = r.run(wr, cfg)
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, bench := range benches {
		// Per-operation service time straight from the drive counters,
		// excluding queueing; the model adds the same fixed command
		// overhead the simulated controller charges.
		var busy float64
		var ops uint64
		for _, d := range cells[i].PerDisk {
			busy += d.BusySeconds
			ops += d.MediaOps
		}
		perOp := busy / float64(ops) * 1000
		model := (g.NominalServiceTime(bench.blocks) + 0.0003) * 1000
		errPct := (perOp/model - 1) * 100
		t.AddRow(bench.name, perOp, model, errPct)
		if math.Abs(errPct) > 10 {
			t.Note("WARNING: %s deviates %.1f%% from the closed form", bench.name, errPct)
		}
	}
	t.Note("paper: simulated vs real drive within 8%% (reads) / 3%% (writes); here the reference is the closed-form model")
	return t, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ExtServers runs the four controller systems on the server classes the
// paper's introduction motivates beyond its three traced servers: mail,
// streaming media, and an OLTP database. Media is blind read-ahead's
// best case — the place FOR must hold the paper's "at least as high
// throughput" guarantee — while OLTP's random single-page traffic is
// its worst.
func ExtServers(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ext-servers",
		Title:   "Other server classes: I/O time (s)",
		XLabel:  "server",
		Columns: []string{"Segm", "FOR", "FOR/Segm"},
	}
	builders := []struct {
		name  string
		build func() (*diskthru.Workload, error)
	}{
		{"mail", func() (*diskthru.Workload, error) { return diskthru.MailWorkload(o.WebScale) }},
		{"media", func() (*diskthru.Workload, error) { return diskthru.MediaWorkload(o.WebScale) }},
		{"oltp", func() (*diskthru.Workload, error) { return diskthru.OLTPWorkload(o.WebScale / 4) }},
	}
	r := newRunner(o)
	rows := make([][]*diskthru.Result, len(builders))
	for i, b := range builders {
		wr := newWorkload(o, b.build)
		rows[i] = r.compare(wr, diskthru.DefaultConfig(),
			[]diskthru.System{diskthru.Segm, diskthru.FOR})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, b := range builders {
		res := rows[i]
		t.AddRow(b.name, res[0].IOTime, res[1].IOTime, res[1].IOTime/res[0].IOTime)
	}
	t.Note("FOR's gain is largest for random single-page OLTP traffic; on shared sequential streaming the paper's MRU eviction costs FOR a few percent (see ablation-for-eviction — LRU removes the regression)")
	return t, nil
}

// ExtZoned compares the uniform-geometry drive the paper models with a
// zoned-bit-recording version of the same drive (average sectors/track
// preserved). The techniques' relative gains must survive the geometry
// refinement.
func ExtZoned(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.4, 0) })
	t := &Table{
		ID:      "ext-zoned",
		Title:   "Uniform vs zoned-bit-recording geometry (16-KB files)",
		XLabel:  "geometry",
		Columns: []string{"Segm", "FOR", "FOR/Segm"},
	}
	zonedModes := []bool{false, true}
	r := newRunner(o)
	rows := make([][]*diskthru.Result, len(zonedModes))
	for i, zoned := range zonedModes {
		cfg := baseConfig()
		cfg.ZonedGeometry = zoned
		rows[i] = r.compare(wr, cfg,
			[]diskthru.System{diskthru.Segm, diskthru.FOR})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, zoned := range zonedModes {
		res := rows[i]
		label := "uniform"
		if zoned {
			label = "zoned"
		}
		t.AddRow(label, res[0].IOTime, res[1].IOTime, res[1].IOTime/res[0].IOTime)
	}
	t.Note("zoning preserves average transfer rate; FOR's relative gain is geometry-robust")
	return t, nil
}

// ExtVictim evaluates the paper's alternative HDC use (section 5): the
// controller caches as an array-wide victim cache for the host buffer
// cache, using the live replay mode so the buffer cache runs inside the
// simulation. Compared against no HDC and the static top-miss plan.
func ExtVictim(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return diskthru.WebWorkload(o.WebScale) })
	t := &Table{
		ID:      "ext-victim",
		Title:   "HDC as a victim cache (Web workload, live replay, stripe=16KB)",
		XLabel:  "policy",
		Columns: []string{"I/O time (s)", "HDC hit%", "bufcache hit%"},
	}
	cacheMB := int(384*o.WebScale + 0.5)
	if cacheMB < 1 {
		cacheMB = 1
	}
	hdcKB := scaleHDCKB(2048, o.WebScale)
	modes := []struct {
		label  string
		hdcKB  int
		victim bool
	}{
		{"no HDC", 0, false},
		{"top-miss pin", hdcKB, false},
		{"victim cache", hdcKB, true},
	}
	r := newRunner(o)
	cells := make([]*diskthru.LiveResult, len(modes))
	for i, mode := range modes {
		cfg := diskthru.DefaultConfig()
		cfg.StripeKB = 16
		cfg.HDCKB = mode.hdcKB
		cells[i] = r.runLive(wr, cfg, diskthru.LiveOptions{
			BufferCacheMB: cacheMB,
			VictimHDC:     mode.victim,
		})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, mode := range modes {
		res := cells[i]
		t.AddRow(mode.label, res.IOTime, res.HDCHitRate*100, res.BufferCacheHitRate*100)
	}
	t.Note("live replay simulates the buffer cache in the loop; victim insertions ship clean evictions to the controllers over the bus")
	return t, nil
}

// ExtLatency runs the array open-loop: 16-KB requests arrive as a
// Poisson process and per-request response times are measured. FOR's
// lower per-miss service time translates into lower latency and a much
// higher sustainable arrival rate — the latency view of the paper's
// throughput claim.
func ExtLatency(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.4, 0) })
	t := &Table{
		ID:      "ext-latency",
		Title:   "Open-loop response time (ms) vs arrival rate (16-KB records)",
		XLabel:  "req/s",
		Columns: []string{"Segm mean", "Segm p50", "Segm p95", "Segm p99", "FOR mean", "FOR p50", "FOR p95", "FOR p99"},
	}
	rates := []float64{200, 500, 800}
	r := newRunner(o)
	type latRow struct{ segm, forr *diskthru.Result }
	rows := make([]latRow, len(rates))
	for i, rate := range rates {
		cfg := baseConfig()
		cfg.ArrivalRate = rate
		rows[i] = latRow{
			segm: r.run(wr, cfg),
			forr: r.run(wr, cfg.WithSystem(diskthru.FOR)),
		}
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, rate := range rates {
		segm, forr := rows[i].segm, rows[i].forr
		t.AddRow(fmt.Sprintf("%.0f", rate),
			segm.Latency.Mean*1000, segm.Latency.P50*1000, segm.Latency.P95*1000, segm.Latency.P99*1000,
			forr.Latency.Mean*1000, forr.Latency.P50*1000, forr.Latency.P95*1000, forr.Latency.P99*1000)
	}
	t.Note("the conventional controller saturates first: blind read-ahead's extra transfer time becomes queueing delay")
	t.Note("percentiles are histogram-bucketed (stats.Histogram, 4096 buckets over [0, max]); mean and max are exact")
	return t, nil
}

// ExtDegraded measures RAID-1 degraded operation: one disk of a
// mirrored pair fails and its partner absorbs the read load, with and
// without the surviving controller's HDC region.
func ExtDegraded(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) {
		return diskthru.SyntheticWorkload(diskthru.SyntheticOptions{
			FileKB:       16,
			Requests:     o.SynRequests,
			ZipfAlpha:    0.8,
			Seed:         1 + o.Seed,
			VolumeBlocks: 4 * 4718560,
		})
	})
	t := &Table{
		ID:      "ext-degraded",
		Title:   "RAID-1 degraded operation (4x2 array, 16-KB files, alpha=0.8)",
		XLabel:  "state",
		Columns: []string{"I/O time (s)", "HDC hit%"},
	}
	base := baseConfig().WithHDC(1024)
	base.Disks = 8
	base.Mirrored = true
	modes := []struct {
		label string
		fail  int
	}{
		{"healthy", 0},
		{"disk 1 failed", 1},
	}
	r := newRunner(o)
	cells := make([]*diskthru.Result, len(modes))
	for i, mode := range modes {
		cfg := base
		cfg.FailedDisk = mode.fail
		cells[i] = r.run(wr, cfg)
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, mode := range modes {
		t.AddRow(mode.label, cells[i].IOTime, cells[i].HDCHitRate*100)
	}
	t.Note("the surviving replica of the failed pair serves all of its pair's reads; HDC hits on the survivor soften the degradation")
	return t, nil
}

// ModelVsSim compares the section 2/4 closed-form models against the
// simulator: per-op service times, FOR's utilization-based speedup
// bound, and the hit-rate models under conditions where they apply.
func ModelVsSim(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	g := geom.Ultrastar36Z15()
	t := &Table{
		ID:      "model-vs-sim",
		Title:   "Closed-form models vs simulation",
		XLabel:  "quantity",
		Columns: []string{"model", "simulated"},
	}
	// FOR speedup bound (per-op service-time ratio, no cache effects):
	// measured under single-outstanding-op conditions so queueing and
	// reuse cannot interfere.
	wr := newWorkload(o, func() (*diskthru.Workload, error) {
		return diskthru.SyntheticWorkload(diskthru.SyntheticOptions{
			FileKB:    16,
			Requests:  2000,
			ZipfAlpha: 0.001,
			Seed:      3 + o.Seed,
		})
	})
	cfg := diskthru.DefaultConfig()
	cfg.Streams = 8
	cfg.CoalesceProb = 1
	r := newRunner(o)
	segm := r.run(wr, cfg)
	forr := r.run(wr, cfg.WithSystem(diskthru.FOR))
	// The 4-KB measurement deliberately swallows errors into NaN, so it
	// stays one cell rather than decomposing into error-carrying runs.
	ratio4 := r.values(func() ([]float64, error) { return []float64{perOpRatioFor4KB(o)}, nil })
	if err := r.wait(); err != nil {
		return nil, err
	}
	perOp := func(r *diskthru.Result) float64 {
		var busy float64
		var ops uint64
		for _, d := range r.PerDisk {
			busy += d.BusySeconds
			ops += d.MediaOps
		}
		return busy / float64(ops)
	}
	t.AddRow("FOR/Segm per-op ratio", model.FORSpeedupBound(g, 4, 32), perOp(forr)/perOp(segm))
	t.AddRow("utilization reduction (4KB files)",
		model.UtilizationReduction(g, 1, 32),
		1-(*ratio4)[0])
	t.Note("model per-op ratios exclude command overhead and LOOK shortening; simulated values measured at one outstanding op per disk")
	return t, nil
}

// perOpRatioFor4KB measures the simulated per-op ratio for 4-KB files.
func perOpRatioFor4KB(o Options) float64 {
	w, err := diskthru.SyntheticWorkload(diskthru.SyntheticOptions{
		FileKB:    4,
		Requests:  2000,
		ZipfAlpha: 0.001,
		Seed:      4 + o.Seed,
	})
	if err != nil {
		return math.NaN()
	}
	cfg := diskthru.DefaultConfig()
	cfg.Streams = 8
	cfg.CoalesceProb = 1
	segm, err := diskthru.Run(w, cfg)
	if err != nil {
		return math.NaN()
	}
	forr, err := diskthru.Run(w, cfg.WithSystem(diskthru.FOR))
	if err != nil {
		return math.NaN()
	}
	perOp := func(r diskthru.Result) float64 {
		var busy float64
		var ops uint64
		for _, d := range r.PerDisk {
			busy += d.BusySeconds
			ops += d.MediaOps
		}
		return busy / float64(ops)
	}
	return perOp(forr) / perOp(segm)
}
