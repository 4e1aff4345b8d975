package diskthru

import (
	"context"

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
// host-managed HDC policies can react to cache events. Everything else
// in cfg applies as in Run. Mirroring is not supported in this mode.
func RunLive(w *Workload, cfg Config, opts LiveOptions) (LiveResult, error) {
	return RunLiveContext(context.Background(), w, cfg, opts)
}

// RunLiveContext is RunLive with the cooperative cancellation of
// RunContext: ctx is polled during the replay, and a fired context
// aborts the run with ctx's error, no result and an aborted telemetry
// scope.
func RunLiveContext(ctx context.Context, w *Workload, cfg Config, opts LiveOptions) (LiveResult, error) {
	return replay(ctx, w, cfg, &opts)
}

// cacheBlocks sizes the buffer cache in blocks, defaulting to 384 MB.
func (o LiveOptions) cacheBlocks() int {
	mb := o.BufferCacheMB
	if mb <= 0 {
		mb = 384
	}
	return mb << 20 / workload.BlockSize
}
