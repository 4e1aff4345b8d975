package experiments

import (
	"context"
	"fmt"
	"runtime"

	"diskthru/internal/probe"
)

// Options sizes the experiments. The paper's full scales are expensive
// (millions of trace records); Defaults runs reduced-but-faithful scales
// and Quick runs the minimum that still shows every trend (used by the
// benchmarks and tests). EXPERIMENTS.md records the scale used for each
// published number.
type Options struct {
	// SynRequests is the synthetic trace length (paper: 10 000).
	SynRequests int
	// WebScale, ProxyScale and FileScale scale the three server
	// workloads relative to the paper's trace sizes.
	WebScale   float64
	ProxyScale float64
	FileScale  float64
	// Seed offsets every generator seed, for replication studies.
	Seed int64
	// Parallelism bounds how many simulation cells a driver runs
	// concurrently. Zero or negative means runtime.GOMAXPROCS(0);
	// one forces the serial path. Every cell owns its own simulator
	// and generators, so tables are byte-identical at any value.
	Parallelism int
	// Ctx, when non-nil, cancels the experiment cooperatively: the
	// runner checks it before starting each simulation cell and the
	// replay engine polls it during cells (see diskthru.RunContext), so
	// a fired context stops a driver within a few thousand simulation
	// events. The job daemon (internal/serve) and cmd/diskthru's
	// -timeout flag both cancel through this field. Nil means run to
	// completion, exactly as before the field existed.
	Ctx context.Context
	// StreamStats switches every open-loop cell to the constant-memory
	// streaming latency sketch (see diskthru.Config.StreamStats): count,
	// mean, and max stay exact, percentiles become sketch midpoints
	// accurate to one bucket width. Off by default so every committed
	// table stays byte-identical; cmd/diskthru's -stream-stats flag and
	// the job API's stream_stats field set it.
	StreamStats bool
	// Progress, when non-nil, receives live-progress updates while the
	// experiment runs: the runner reports the cell plan and each cell
	// completion, and every cell's replay engine reports events fired
	// and virtual time advanced (see diskthru.Config.Progress). A pure
	// observer — tables are byte-identical with it attached or not. The
	// job daemon attaches one per job; cmd/diskthru's -progress flag
	// attaches one per experiment.
	Progress *probe.Progress
	// WorkloadCache, when non-nil, lets this invocation reuse workloads
	// built by earlier invocations of the same (experiment, Options)
	// pair instead of regenerating them — layout allocation and trace
	// synthesis are a large share of a small cell job's cost. Keys are
	// deterministic (see warm.go); the built values are read-only during
	// replay, so sharing never perturbs results. The job daemon wires
	// its LRU cache through this field; nil (default) builds from
	// scratch, exactly as before.
	WorkloadCache WorkloadCache
	// cells carries the cell-granularity execution session installed by
	// RunCellExec / RunWithCellExec (see cell.go); nil for ordinary runs.
	// Unexported on purpose: the only safe producers are in this
	// package.
	cells *cellSession
	// warm scopes the WorkloadCache keys of one invocation; stamped by
	// the entry points via initWarm (Options does not know the
	// experiment name).
	warm *warmState
}

// parallelism resolves the worker-pool width.
func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Defaults are the scales the committed EXPERIMENTS.md numbers use.
// They are the smallest scales at which the buffer cache's churn-band
// reuse distances clear the controller-cache horizon (see DESIGN.md), so
// controller hit rates behave as at paper scale.
func Defaults() Options {
	return Options{
		SynRequests: 10000,
		WebScale:    0.25,
		ProxyScale:  0.15,
		FileScale:   0.02,
	}
}

// Quick shrinks everything for fast benchmarking; trends survive but FOR
// gains overshoot (short reuse distances let the controller cache capture
// reuse it could not at paper scale).
func Quick() Options {
	return Options{
		SynRequests: 2500,
		WebScale:    0.05,
		ProxyScale:  0.05,
		FileScale:   0.005,
	}
}

// Validate reports option errors.
func (o Options) Validate() error {
	if o.SynRequests <= 0 {
		return fmt.Errorf("experiments: %d synthetic requests", o.SynRequests)
	}
	if o.WebScale <= 0 || o.ProxyScale <= 0 || o.FileScale <= 0 {
		return fmt.Errorf("experiments: non-positive workload scale in %+v", o)
	}
	return nil
}
