// Package diskthru reproduces the system of Carrera & Bianchini,
// "Improving Disk Throughput in Data-Intensive Servers" (HPCA 2004): a
// detailed event-driven simulator of a striped SCSI disk array whose
// controllers implement the paper's two techniques —
//
//   - FOR (File-Oriented Read-ahead): a block-based controller cache plus
//     a per-disk continuation bitmap that bounds read-ahead at file
//     boundaries, cutting useless transfer for small-file server
//     workloads; and
//   - HDC (Host-guided Device Caching): pin_blk/unpin_blk/flush_hdc
//     commands that let the host permanently cache its hottest
//     buffer-cache-missing blocks in the controllers.
//
// The package exposes the paper's Table 1 configuration surface
// (Config), workload constructors matching the evaluation's synthetic
// and server traces (SyntheticWorkload, WebWorkload, ProxyWorkload,
// FileServerWorkload), and Run, which replays a workload and reports the
// paper's metrics. The experiment drivers that regenerate each figure
// and table live in internal/experiments and are reachable through
// cmd/diskthru.
package diskthru

import (
	"context"
	"fmt"
	"math"
	"sort"

	"diskthru/internal/array"
	"diskthru/internal/bus"
	"diskthru/internal/disk"
	"diskthru/internal/fslayout"
	"diskthru/internal/geom"
	"diskthru/internal/host"
	"diskthru/internal/probe"
	"diskthru/internal/sim"
	"diskthru/internal/stats"
	"diskthru/internal/workload"
)

// defaultTelemetry receives the telemetry of runs whose Config carries
// none. cmd/diskthru sets it from the -trace/-metrics flags so the
// experiment drivers observe their runs without any per-driver plumbing.
var defaultTelemetry *probe.Telemetry

// SetDefaultTelemetry installs (or, with nil, removes) the process-wide
// telemetry fallback. Telemetry is a pure observer: enabling it never
// changes any simulation result. Not safe to call concurrently with
// running simulations.
func SetDefaultTelemetry(t *probe.Telemetry) { defaultTelemetry = t }

// DiskStats is one drive's view of a finished run.
type DiskStats struct {
	Reads, Writes   uint64
	HitRate         float64
	HDCHitRate      float64
	MediaOps        uint64
	MediaBlocks     uint64
	RequestedBlocks uint64
	BusySeconds     float64
	// Fault-model counters, all zero when Config.Faults is nil: Retries
	// counts failed media attempts, Remaps latent windows repaired on
	// the final attempt, Dropped requests discarded by a dead disk, and
	// RecoverySeconds the time the drive spent on failed attempts.
	// Timeouts counts host watchdog firings against this disk (requires
	// Config.RequestTimeoutSeconds > 0).
	Retries         uint64
	Remaps          uint64
	Dropped         uint64
	RecoverySeconds float64
	Timeouts        uint64
}

// Result reports the paper's measurements for one replay.
type Result struct {
	// IOTime is the makespan of the trace replay in seconds — the
	// quantity the paper's figures plot (absolute or normalized).
	IOTime float64
	// HitRate is the array-wide controller-cache hit rate.
	HitRate float64
	// HDCHitRate is the array-wide pinned-region hit rate (Figures 5,
	// 8, 10, 12).
	HDCHitRate float64
	// MediaBlocks counts blocks moved at the platters, read-ahead
	// included; RequestedBlocks counts what the host asked for. Their
	// ratio exposes read-ahead waste.
	MediaBlocks     uint64
	RequestedBlocks uint64
	// Requests is the number of per-disk requests the host issued.
	Requests uint64
	// BusSeconds and BusUtilization describe interconnect load.
	BusSeconds     float64
	BusUtilization float64
	// Latency summarizes per-record response times; populated only by
	// open-loop runs (Config.ArrivalRate > 0).
	Latency LatencySummary
	// Retries totals failed media attempts across the array (zero
	// without a fault model); Timeouts and Redirects total host watchdog
	// firings and sub-requests re-homed to surviving disks (zero without
	// Config.RequestTimeoutSeconds).
	Retries   uint64
	Timeouts  uint64
	Redirects uint64
	// PerDisk holds each drive's counters, in array order.
	PerDisk []DiskStats
}

// LatencySummary reports response-time statistics of an open-loop run,
// in seconds.
type LatencySummary struct {
	N                   int
	Mean, P50, P95, P99 float64
	Max                 float64
}

// summarizeLatencies summarizes response times: mean/max exactly via
// stats.Summary, percentiles via a stats.Histogram over [0, max] — fixed
// memory regardless of run length, at a resolution of max/4096.
func summarizeLatencies(v []float64) LatencySummary {
	if len(v) == 0 {
		// No samples, no statistics: NaN everywhere (rendered "-" in
		// tables), not zeros that read like a measured instant response.
		nan := math.NaN()
		return LatencySummary{Mean: nan, P50: nan, P95: nan, P99: nan, Max: nan}
	}
	var sum stats.Summary
	for _, x := range v {
		sum.Observe(x)
	}
	hi := sum.Max()
	if hi <= 0 {
		hi = 1e-12 // all-zero latencies still need a non-empty range
	}
	h := stats.NewHistogram(0, hi*(1+1e-9), 4096)
	for _, x := range v {
		h.Observe(x)
	}
	return LatencySummary{
		N:    sum.N(),
		Mean: sum.Mean(),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
		Max:  sum.Max(),
	}
}

// summarizeStream converts a streaming sketch into the latency summary:
// count, mean, and max are exact (same accumulator as the two-pass
// path), percentiles are sketch midpoints accurate to one bucket width.
func summarizeStream(s *stats.StreamSummary) LatencySummary {
	if s.N() == 0 {
		nan := math.NaN()
		return LatencySummary{Mean: nan, P50: nan, P95: nan, P99: nan, Max: nan}
	}
	return LatencySummary{
		N:    s.N(),
		Mean: s.Mean(),
		P50:  s.Quantile(0.50),
		P95:  s.Quantile(0.95),
		P99:  s.Quantile(0.99),
		Max:  s.Max(),
	}
}

// Throughput reports requested payload bytes per second of I/O time.
func (r Result) Throughput() float64 {
	if r.IOTime <= 0 {
		return 0
	}
	return float64(r.RequestedBlocks) * float64(workload.BlockSize) / r.IOTime
}

// ReadAheadWaste reports the fraction of media traffic that was
// read-ahead beyond the requested blocks.
func (r Result) ReadAheadWaste() float64 {
	if r.MediaBlocks == 0 {
		return 0
	}
	extra := float64(r.MediaBlocks) - float64(r.RequestedBlocks)
	if extra < 0 {
		return 0
	}
	return extra / float64(r.MediaBlocks)
}

// rig is an assembled array: simulator, bus, striper and drives.
type rig struct {
	sim      *sim.Simulator
	bus      *bus.Bus
	striper  array.Striper
	disks    []*disk.Disk
	geom     geom.Geometry
	replicas int
	logical  int
}

// recycle hands the rig's pooled storage — the simulator's event queue
// and every drive's cache-index tables — to the next replay cell. Legal
// only after the replay has drained; the rig must not be used after.
func (r *rig) recycle() {
	r.sim.Recycle()
	for _, d := range r.disks {
		d.Release()
	}
}

// diskProbes adapts the drives to the sampler's interface.
func (r *rig) diskProbes() []probe.DiskProbe {
	out := make([]probe.DiskProbe, len(r.disks))
	for i, d := range r.disks {
		out[i] = d
	}
	return out
}

// buildRig assembles the simulated array for a workload: geometry,
// capacity check, FOR bitmaps, and one drive per physical disk. tracer
// (nil = tracing off) is shared by every drive; records carry disk ids.
func buildRig(w *Workload, cfg Config, tracer probe.Tracer) (*rig, error) {
	inner := w.inner
	g := geom.Ultrastar36Z15()
	if cfg.ZonedGeometry {
		g = geom.Ultrastar36Z15Zoned()
	}
	replicas := 1
	if cfg.Mirrored {
		replicas = 2
	}
	logical := cfg.Disks / replicas
	if capacity := int64(logical) * g.Blocks(); inner.Layout.VolumeBlocks() > capacity {
		return nil, fmt.Errorf("diskthru: workload volume of %d blocks exceeds the array's usable capacity of %d (%d disks, %dx replication)",
			inner.Layout.VolumeBlocks(), capacity, cfg.Disks, replicas)
	}
	unitBlocks := cfg.StripeKB << 10 / g.BlockSize
	striper := array.NewStriper(logical, unitBlocks)

	s := sim.New()
	b := bus.New(s, bus.Ultra160())

	var bitmaps []*fslayout.Bitmap
	if cfg.System == FOR {
		bitmaps = fslayout.BuildBitmaps(inner.Layout, striper)
	}

	disks := make([]*disk.Disk, cfg.Disks)
	for i := range disks {
		dc := cfg.diskConfig()
		dc.Geom = g
		dc.Tracer = tracer
		if bitmaps != nil {
			dc.Bitmap = bitmaps[i/replicas] // replicas share the layout
		}
		if cfg.Faults != nil {
			dc.Injector = cfg.Faults.Injector(i)
		}
		d, err := disk.New(s, b, i, dc)
		if err != nil {
			return nil, fmt.Errorf("disk %d: %w", i, err)
		}
		disks[i] = d
	}
	return &rig{
		sim: s, bus: b, striper: striper, disks: disks,
		geom: g, replicas: replicas, logical: logical,
	}, nil
}

// collectResult snapshots the rig's counters into a Result.
func collectResult(end float64, r *rig, requests uint64) Result {
	agg := host.Collect(r.disks)
	// Normalize bus load by the makespan, not sim.Now(): idle events past
	// the last completion (telemetry sampling ticks, background syncs)
	// must not dilute utilization.
	busUtil := 0.0
	if end > 0 {
		busUtil = r.bus.BusySeconds() / end
	}
	res := Result{
		IOTime:         end,
		HitRate:        agg.HitRate(),
		HDCHitRate:     agg.HDCHitRate(),
		MediaBlocks:    agg.MediaBlocks(),
		Requests:       requests,
		BusSeconds:     r.bus.BusySeconds(),
		BusUtilization: busUtil,
		PerDisk:        make([]DiskStats, len(r.disks)),
	}
	for i, st := range agg.PerDisk {
		res.RequestedBlocks += st.RequestedBlocks
		res.Retries += st.Retries
		res.PerDisk[i] = DiskStats{
			Reads:           st.Reads,
			Writes:          st.Writes,
			HitRate:         st.HitRate(),
			HDCHitRate:      st.HDCHitRate(),
			MediaOps:        st.MediaOps,
			MediaBlocks:     st.MediaBlocks,
			RequestedBlocks: st.RequestedBlocks,
			BusySeconds:     st.BusyTime(),
			Retries:         st.Retries,
			Remaps:          st.Remaps,
			Dropped:         st.Dropped,
			RecoverySeconds: st.RecoveryTime,
		}
	}
	return res
}

// Run replays the workload on an array configured per cfg and returns
// the measurements. The run is deterministic for a fixed (workload,
// config) pair.
func Run(w *Workload, cfg Config) (Result, error) {
	return RunContext(context.Background(), w, cfg)
}

// RunContext is Run with cooperative cancellation: the replay polls
// ctx every few thousand simulation events (see sim.SetCancel) and
// returns ctx's error once it fires, abandoning the unfired events. A
// cancelled run reports no telemetry and no Result. A nil or
// background context reproduces Run exactly — including its results,
// byte for byte.
func RunContext(ctx context.Context, w *Workload, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	inner := w.inner
	source := inner.NewSource != nil
	if source && cfg.ArrivalRate <= 0 {
		return Result{}, fmt.Errorf("diskthru: %s is an open-loop source workload; set Config.ArrivalRate", w.Name())
	}
	if source && cfg.HDCKB > 0 {
		return Result{}, fmt.Errorf("diskthru: host-guided caching plans over a materialized trace; %s generates records on the fly", w.Name())
	}
	scope := cfg.telemetry().StartRun(fmt.Sprintf("%s-%s", w.Name(), cfg.System))
	r, err := buildRig(w, cfg, scope.Tracer())
	if err != nil {
		return Result{}, err
	}

	if cfg.HDCKB > 0 {
		perDisk := cfg.HDCKB << 10 / r.geom.BlockSize
		planTrace := planningTrace(inner.Trace, cfg)
		switch {
		case cfg.CoopHDC && r.replicas == 2:
			// Cooperative: plan twice the per-controller capacity per
			// pair and split it across the replicas, doubling distinct
			// pinned blocks; reads route to the pinning replica. The
			// split alternates whole contiguous runs, never single
			// blocks, so multi-block requests stay fully pinned on one
			// replica.
			plan := host.PlanHDC(planTrace, inner.Layout, r.striper, 2*perDisk)
			for d := 0; d < r.logical; d++ {
				a, bHalf := splitRuns(plan[d])
				r.disks[2*d].PinBlocks(a)
				r.disks[2*d+1].PinBlocks(bHalf)
			}
		default:
			plan := host.PlanHDC(planTrace, inner.Layout, r.striper, perDisk)
			for i, d := range r.disks {
				d.PinBlocks(plan[i/r.replicas])
			}
		}
	}

	streams := cfg.Streams
	if streams <= 0 {
		streams = inner.Streams
	}
	issue := host.IssueAll
	if cfg.SequentialIssue {
		issue = host.IssueSequential
	}
	hostCfg := host.Config{
		Streams:        streams,
		CoalesceProb:   cfg.CoalesceProb,
		Seed:           cfg.Seed,
		Issue:          issue,
		FlushHDCAtEnd:  cfg.FlushHDCAtEnd && cfg.HDCKB > 0,
		SyncHDCEvery:   cfg.SyncHDCSeconds,
		Replicas:       r.replicas,
		FailDisk:       cfg.FailedDisk,
		ArrivalRate:    cfg.ArrivalRate,
		RequestTimeout: cfg.RequestTimeoutSeconds,
		DiskBlocks:     r.geom.Blocks(),
	}
	// Streaming aggregation: response times fold into a fixed-size
	// sketch as they complete instead of accumulating per-sample. The
	// default path is untouched so its tables stay byte-identical.
	var stream *stats.StreamSummary
	if cfg.StreamStats && cfg.ArrivalRate > 0 {
		stream = &stats.StreamSummary{}
		hostCfg.OnLatency = stream.Observe
	}
	h, err := host.New(r.sim, r.disks, r.striper, inner.Layout, hostCfg)
	if err != nil {
		return Result{}, err
	}
	scope.StartSampler(r.sim, r.diskProbes(), probe.SamplerSources{
		BusUtil:      r.bus.Utilization,
		Issued:       h.Issued,
		Active:       h.Active,
		DiskTimeouts: h.TimeoutCount,
	})

	if done := ctx.Done(); done != nil {
		r.sim.SetCancel(done)
	}
	watchProgress(r.sim, cfg.Progress)
	if source {
		h.StartOpen(inner.NewSource())
	} else {
		h.Start(inner.Trace)
	}
	r.sim.Run()
	if r.sim.Cancelled() {
		// Partial counters and partial telemetry would misrepresent the
		// workload; drop both.
		return Result{}, fmt.Errorf("diskthru: %s/%s replay cancelled: %w", w.Name(), cfg.System, ctx.Err())
	}
	end := h.Makespan()
	res := collectResult(end, r, h.IssuedRequests)
	if stream != nil {
		res.Latency = summarizeStream(stream)
	} else {
		res.Latency = summarizeLatencies(h.Latencies)
	}
	res.Redirects = h.Redirects()
	for i, n := range h.Timeouts() {
		res.Timeouts += n
		res.PerDisk[i].Timeouts = n
	}
	if err := scope.Finish(); err != nil {
		return res, fmt.Errorf("diskthru: telemetry: %w", err)
	}
	r.recycle() // hand the drained queue and index storage to the next replay
	return res, nil
}

// watchProgress subscribes a progress tracker to one replay engine, for
// both Run and RunLive. A nil tracker leaves the simulator's hot loop
// uninstrumented; otherwise the closure and its captured counters are
// the only allocations — one-time, per cell, outside the event loop —
// and the callback itself is allocation-free.
func watchProgress(s *sim.Simulator, p *probe.Progress) {
	if p == nil {
		return
	}
	var lastEvents uint64
	var lastNow sim.Time
	s.SetProgress(func(processed uint64, now sim.Time) {
		p.Advance(processed-lastEvents, now-lastNow)
		lastEvents, lastNow = processed, now
	})
}

// splitRuns partitions a pinned-block plan into two halves, alternating
// whole physically-contiguous runs so a multi-block request is never
// split across replicas.
func splitRuns(plan []int64) (a, b []int64) {
	sorted := make([]int64, len(plan))
	copy(sorted, plan)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	toA := true
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[j-1]+1 {
			j++
		}
		if toA {
			a = append(a, sorted[i:j]...)
		} else {
			b = append(b, sorted[i:j]...)
		}
		toA = !toA
		i = j
	}
	return a, b
}

// Compare runs the same workload under every system in order and returns
// the results keyed by position. Convenience for experiment drivers.
func Compare(w *Workload, base Config, systems []System) ([]Result, error) {
	out := make([]Result, len(systems))
	for i, sys := range systems {
		r, err := Run(w, base.WithSystem(sys))
		if err != nil {
			return nil, fmt.Errorf("%v: %w", sys, err)
		}
		out[i] = r
	}
	return out, nil
}
