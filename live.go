package diskthru

import (
	"context"
	"fmt"

	"diskthru/internal/host"
	"diskthru/internal/probe"
	"diskthru/internal/workload"
)

// LiveOptions configures RunLive, the server-level replay mode with the
// host buffer cache simulated inside the run.
type LiveOptions struct {
	// BufferCacheMB is the host buffer cache size (default 384, the
	// paper's server's usable memory).
	BufferCacheMB int
	// VictimHDC manages each controller's HDC region (Config.HDCKB) as
	// an array-wide FIFO victim cache of clean buffer-cache evictions —
	// the alternative HDC use the paper sketches in section 5. Without
	// it, a non-zero HDCKB pins the top-miss blocks as in Run.
	VictimHDC bool
}

// LiveResult extends Result with the host-side cache measurements only
// the live mode can observe.
type LiveResult struct {
	Result
	// ServerAccesses is the number of server-level records replayed.
	ServerAccesses uint64
	// Absorbed counts records served entirely from the buffer cache.
	Absorbed uint64
	// BufferCacheHitRate is the host cache's block hit rate.
	BufferCacheHitRate float64
	// VictimInserts counts blocks shipped to controller victim regions.
	VictimInserts uint64
}

// RunLive replays the workload's server-level access stream (rather
// than its pre-filtered disk-level trace) with a live buffer cache, so
// host-managed HDC policies can react to cache events. Mirroring is not
// supported in this mode.
func RunLive(w *Workload, cfg Config, opts LiveOptions) (LiveResult, error) {
	return RunLiveContext(context.Background(), w, cfg, opts)
}

// RunLiveContext is RunLive with the cooperative cancellation of
// RunContext: ctx is polled during the replay, and a fired context
// aborts the run with ctx's error and no telemetry.
func RunLiveContext(ctx context.Context, w *Workload, cfg Config, opts LiveOptions) (LiveResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return LiveResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return LiveResult{}, err
	}
	if cfg.Mirrored || cfg.CoopHDC {
		return LiveResult{}, fmt.Errorf("diskthru: live mode does not support mirroring")
	}
	if w.inner.Server == nil {
		return LiveResult{}, fmt.Errorf("diskthru: workload %q carries no server-level trace", w.Name())
	}
	cacheMB := opts.BufferCacheMB
	if cacheMB <= 0 {
		cacheMB = 384
	}

	scope := cfg.telemetry().StartRun(fmt.Sprintf("live-%s-%s", w.Name(), cfg.System))
	r, err := buildRig(w, cfg, scope.Tracer())
	if err != nil {
		return LiveResult{}, err
	}
	watchProgress(r.sim, cfg.Progress)
	// Static HDC plan (top-miss blocks) unless the victim policy manages
	// the region dynamically.
	if cfg.HDCKB > 0 && !opts.VictimHDC {
		plan := w.hdcPlan(cfg, r.striper, cfg.HDCKB<<10/r.geom.BlockSize)
		for i, d := range r.disks {
			d.PinBlocks(plan[i])
		}
	}

	streams := cfg.Streams
	if streams <= 0 {
		streams = w.inner.Streams
	}
	l, err := host.NewLive(r.sim, r.bus, r.disks, r.striper, w.inner.Layout, host.LiveConfig{
		Streams:      streams,
		CoalesceProb: cfg.CoalesceProb,
		Seed:         cfg.Seed,
		CacheBlocks:  cacheMB << 20 / workload.BlockSize,
		Victim:       opts.VictimHDC,
	})
	if err != nil {
		return LiveResult{}, err
	}
	scope.StartSampler(r.sim, r.diskProbes(), probe.SamplerSources{
		BusUtil:   r.bus.Utilization,
		Issued:    l.Issued,
		Active:    l.Active,
		HostCache: l.CacheCounters,
	})
	if done := ctx.Done(); done != nil {
		r.sim.SetCancel(done)
	}
	end := l.Replay(w.inner.Server)
	if r.sim.Cancelled() {
		return LiveResult{}, fmt.Errorf("diskthru: live %s/%s replay cancelled: %w", w.Name(), cfg.System, ctx.Err())
	}
	res := collectResult(end, r, l.IssuedRequests)
	if err := scope.Finish(); err != nil {
		return LiveResult{}, fmt.Errorf("diskthru: telemetry: %w", err)
	}
	r.recycle() // hand the drained queue and index storage to the next replay
	return LiveResult{
		Result:             res,
		ServerAccesses:     uint64(w.inner.Server.Len()),
		Absorbed:           l.Absorbed,
		BufferCacheHitRate: l.CacheHitRate(),
		VictimInserts:      l.VictimInserts,
	}, nil
}
