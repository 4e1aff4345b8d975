package probe

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"diskthru/internal/sim"
)

// Telemetry coordinates export across the runs of a process: it owns
// the shared trace and metrics sinks, hands each simulation run a
// RunScope, and lets the run's recorder and sampler spill finalized
// batches into them as the run progresses — memory stays bounded by
// the spill batch size, not the run's makespan. Either writer may be
// nil to disable that export. Runs may execute concurrently: batches
// are written atomically and each run's lines arrive in that run's
// order, so a trace groups cleanly by run label even when runs
// interleave. The r### sequence numbers reflect start order, which
// with concurrent runs is no longer the registry order.
type Telemetry struct {
	trace    *Sink
	metrics  *Sink
	interval float64

	mu     sync.Mutex
	runSeq int
}

// DefaultSampleInterval is the metrics sampling period (virtual seconds)
// used when the caller passes a non-positive interval.
const DefaultSampleInterval = 0.1

// NewTelemetry returns a coordinator writing JSONL traces to traceW and
// CSV metrics to metricsW (either may be nil), sampling every
// sampleInterval virtual seconds.
func NewTelemetry(traceW, metricsW io.Writer, sampleInterval float64) *Telemetry {
	if sampleInterval <= 0 {
		sampleInterval = DefaultSampleInterval
	}
	return &Telemetry{
		trace:    NewSink(traceW, ""),
		metrics:  NewSink(metricsW, MetricsHeaderLine()),
		interval: sampleInterval,
	}
}

// RunScope is one simulation run's view of the telemetry layer. A nil
// *RunScope is valid and inert, so call sites need no guards.
type RunScope struct {
	tel  *Telemetry
	run  string
	rec  *Recorder
	samp *Sampler
}

// StartRun opens a scope for one simulation run. label names the run in
// the exported records (a sequence number is prepended so sweeps that
// reuse a label stay distinguishable).
func (t *Telemetry) StartRun(label string) *RunScope {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.runSeq++
	seq := t.runSeq
	t.mu.Unlock()
	rs := &RunScope{tel: t, run: fmt.Sprintf("r%03d-%s", seq, label)}
	if t.trace != nil {
		rs.rec = NewSpillRecorder(rs.run, t.trace)
	}
	return rs
}

// Tracer returns the run's request tracer, or nil when tracing is off —
// callers pass it straight into the disk configuration.
func (rs *RunScope) Tracer() Tracer {
	if rs == nil || rs.rec == nil {
		return nil
	}
	return rs.rec
}

// StartSampler arms periodic metrics sampling for the run; a no-op when
// metrics export is off. Call after the rig is built and before the
// replay starts.
func (rs *RunScope) StartSampler(sm *sim.Simulator, disks []DiskProbe, src SamplerSources) {
	if rs == nil || rs.tel.metrics == nil {
		return
	}
	rs.samp = NewSampler(rs.run, rs.tel.interval, disks, src, rs.tel.metrics)
	rs.samp.Start(sm)
}

// CancelledTime is the time column of the metrics row that ends a
// cancelled run.
const CancelledTime = "cancelled"

// Abort ends the scope of a cancelled run. The batches the run already
// spilled stay in the sinks and its retained tails are dropped. Each
// sink that holds lines from the run gets one terminal record marking
// them partial: the trace a {"run":…,"cancelled":true} line, the
// metrics a row whose time column is CancelledTime and whose other
// columns after run are empty. A sink that holds none of the run's
// lines gets nothing. A write error stays in the sink, where the next
// Finish on it reports it.
func (rs *RunScope) Abort() {
	if rs == nil {
		return
	}
	if rs.rec != nil && rs.rec.base > 0 {
		b := appendJSONString([]byte(`{"run":`), rs.run)
		rs.tel.trace.Write(append(b, `,"cancelled":true}`+"\n"...))
	}
	if rs.samp != nil && rs.samp.spilled {
		b := append([]byte(rs.samp.runField), ","+CancelledTime...)
		b = append(b, strings.Repeat(",", len(metricsHeader)-2)...)
		rs.tel.metrics.Write(append(b, '\n'))
	}
}

// Finish flushes the run's retained tails — the records whose
// useless-read-ahead verdict needed the whole run, and the last partial
// metrics batch — and surfaces the sinks' first write error.
func (rs *RunScope) Finish() error {
	if rs == nil {
		return nil
	}
	if rs.rec != nil {
		if err := rs.rec.Close(); err != nil {
			return err
		}
	}
	if rs.samp != nil {
		if err := rs.samp.Close(); err != nil {
			return fmt.Errorf("probe: metrics write: %w", err)
		}
	}
	return nil
}
