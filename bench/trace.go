package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"time"

	"diskthru"
)

// span is one timed interval of a traced run, written to spans.json.
// Times are milliseconds since the run started.
type span struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent"`
	Name     string         `json:"name"`
	Workload string         `json:"workload"`
	Start    float64        `json:"start_ms"`
	End      float64        `json:"end_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// tracer keeps a traced run's spans in memory. A nil tracer records
// nothing, so untraced reps pass nil.
type tracer struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

func (t *tracer) at(ts time.Time) float64 { return ms(ts.Sub(t.origin)) }

// open starts a span whose end is not known yet; ids start at 1, and
// parent 0 is the root.
func (t *tracer) open(parent int, name string, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: t.workload, Start: t.at(start)})
	return len(t.spans)
}

func (t *tracer) close(id int, end time.Time, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End, t.spans[id-1].Attrs = t.at(end), attrs
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) int {
	id := t.open(parent, name, start)
	t.close(id, end, attrs)
	return id
}

// durations returns the lengths, in ms, of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(path, t.spans)
}

// profiled runs fn under the CPU profiler and returns the profile path.
func (b *bench) profiled(fn func()) (string, error) {
	dir := filepath.Join(b.cfg.work, "trace", b.w.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return "", err
	}
	fn()
	pprof.StopCPUProfile()
	return path, f.Close()
}

// layers are the repository's packages plus four catch-alls: bench (this
// program), stdlib (standard-library goroutines such as HTTP connection
// loops), runtime (the scheduler and garbage collector) and other (a
// package not listed here). Every profile sample lands in exactly one,
// so their cpu_share values sum to 100.
var layers = []string{
	"array", "bufcache", "bus", "cache", "diskthru", "disk", "dist", "experiments",
	"fault", "fleet", "fslayout", "geom", "host", "intmap", "journal", "metrics",
	"model", "probe", "sched", "serve", "sim", "snapshot", "stats", "trace", "workload",
	"bench", "stdlib", "runtime", "other",
}

// gcRoots mark samples spent collecting garbage, wherever they are
// attributed (a mark assist is charged to the allocating caller).
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// attribute charges every CPU sample to the innermost frame that belongs
// to the repository or to this program — so math.Mod under geom counts
// as geom and mallocgc as its caller's — and returns each layer's share
// in percent plus the share spent in garbage collection. It reads the
// profile with `go tool pprof -traces`.
func attribute(profile string) (map[string]float64, float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	byLayer := map[string]time.Duration{}
	var total, gc time.Duration
	var frames []string
	var value time.Duration
	flush := func() {
		if len(frames) == 0 {
			return
		}
		layer := layerOf(frames, known)
		byLayer[layer] += value
		total += value
		for _, f := range frames {
			if isGC(f) {
				gc += value
				break
			}
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTraces := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inTraces = true
			continue
		}
		fields := strings.Fields(line)
		if !inTraces || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line, not a sample
			}
			value, fields = d, fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if total == 0 {
		return nil, 0, fmt.Errorf("%s: no CPU samples", profile)
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 100 * float64(byLayer[l]) / float64(total)
	}
	return shares, 100 * float64(gc) / float64(total), nil
}

// layerOf names the layer of one sample, frames listed leaf first.
func layerOf(frames []string, known map[string]bool) string {
	for _, f := range frames {
		var layer string
		switch {
		case strings.HasPrefix(f, "diskthru/internal/"):
			layer = strings.TrimPrefix(f, "diskthru/internal/")
			layer = layer[:strings.IndexAny(layer+".", "./")]
		case strings.HasPrefix(f, "diskthru."):
			layer = "diskthru"
		case strings.HasPrefix(f, "main."):
			layer = "bench"
		default:
			continue
		}
		if !known[layer] {
			return "other"
		}
		return layer
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") {
			return "stdlib"
		}
	}
	return "runtime"
}

func isGC(frame string) bool {
	for _, r := range gcRoots {
		if frame == r {
			return true
		}
	}
	return false
}

// decodeResult reads a cell payload: a type tag, then the gob of a
// diskthru.Result ('R'). Other slot types carry no Result.
func decodeResult(payload []byte) (diskthru.Result, bool) {
	var r diskthru.Result
	if len(payload) == 0 || payload[0] != 'R' {
		return r, false
	}
	return r, gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(&r) == nil
}

// perLayer reduces a traced run to the per-layer metrics: profile
// shares, counts and times at the layer boundaries the benchmark can
// see from outside, simulated statistics decoded from the cells'
// payloads, and the micro-drives.
func (b *bench) perLayer(plain, traced []*repResult, tr *tracer, profile string) (map[string]stat, error) {
	m := map[string]stat{}
	put := func(name, unit string, v ...float64) { m[name] = summarize(unit, v...) }

	shares, gc, err := attribute(profile)
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		put(layer+".cpu_share", "%", share)
	}
	put("runtime.gc_cpu_share", "%", gc)

	walls := func(reps []*repResult) (out []float64) {
		for _, r := range reps {
			out = append(out, r.wall)
		}
		return out
	}
	put("trace_overhead", "ratio", quantile(walls(traced), 0.5)/quantile(walls(plain), 0.5))

	var events, nsPerEvent, alloc, gcs, cells, poolEff, cellMS []float64
	for _, r := range traced {
		var ev uint64
		for _, e := range r.events {
			ev += e
		}
		events = append(events, float64(ev))
		if ev > 0 {
			nsPerEvent = append(nsPerEvent, r.cpu*1e9/float64(ev))
		}
		alloc = append(alloc, r.allocMB)
		gcs = append(gcs, r.gcs)
		cells = append(cells, float64(len(r.jobsMS)))
		busy := 0.0
		for _, v := range r.jobsMS {
			busy += v
		}
		poolEff = append(poolEff, busy/1000/(r.wall*parallelism))
		cellMS = append(cellMS, r.jobsMS...)
	}
	put("sim.events", "count", events...)
	put("sim.ns_per_event", "ns", nsPerEvent...)
	put("runtime.alloc_mb", "MB", alloc...)
	put("runtime.gc_cycles", "count", gcs...)
	put("experiments.cells", "count", cells...)
	put("experiments.cell_ms_p50", "ms", quantile(cellMS, 0.5))
	put("experiments.cell_ms_p90", "ms", quantile(cellMS, 0.9))
	put("experiments.pool_efficiency", "ratio", poolEff...)
	put("workload.build_ms", "ms", quantile(tr.durations("workload.build"), 0.5))

	// Simulated statistics of the first traced rep's cells: identical on
	// every run of the same seed, so any change here is a behaviour change.
	// Cells finish in any order; sorting fixes the order of the float sums.
	payloads := slices.Clone(traced[0].payloads)
	slices.SortFunc(payloads, bytes.Compare)
	var hit, hdc, waste, bus, media, requests float64
	n := 0
	for _, p := range payloads {
		res, ok := decodeResult(p)
		if !ok {
			continue
		}
		n++
		hit += res.HitRate
		hdc += res.HDCHitRate
		waste += res.ReadAheadWaste()
		bus += res.BusUtilization
		requests += float64(res.Requests)
		for _, d := range res.PerDisk {
			media += float64(d.MediaOps)
		}
	}
	if n > 0 {
		hit, hdc, waste, bus = hit/float64(n), hdc/float64(n), waste/float64(n), bus/float64(n)
	}
	put("disk.hit_rate", "ratio", hit)
	put("disk.hdc_hit_rate", "ratio", hdc)
	put("disk.ra_waste", "ratio", waste)
	put("disk.media_ops", "count", media)
	put("host.requests", "count", requests)
	put("bus.utilization", "ratio", bus)

	if err := b.fleetLayers(put, traced); err != nil {
		return nil, err
	}
	micro, err := b.microDrives(tr, traced)
	if err != nil {
		return nil, err
	}
	for name, s := range micro {
		m[name] = s
	}
	return m, nil
}

// fleetLayers adds the serve, journal and fleet metrics over the traced
// reps: measured on fleet-sweep, zero on the workloads that never reach
// those layers.
func (b *bench) fleetLayers(put func(string, string, ...float64), traced []*repResult) error {
	var queue, runMS, overhead, requeued []float64
	jobs, requests := 0.0, 0.0
	for _, r := range traced {
		requeued = append(requeued, r.requeued)
		for _, j := range r.jobs {
			v := j.view
			if v.StartedAt == nil || v.FinishedAt == nil {
				continue
			}
			jobs++
			requests += float64(j.requests)
			queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
			runMS = append(runMS, ms(v.FinishedAt.Sub(*v.StartedAt)))
			overhead = append(overhead, ms(j.seen.Sub(j.submit))-ms(v.FinishedAt.Sub(v.SubmittedAt)))
		}
	}
	// The daemons' counters run since boot; the traced reps' share is the
	// change since the traced phase began.
	delta := map[string]float64{}
	if b.fleet != nil {
		after, err := b.fleet.daemonMetrics()
		if err != nil {
			return err
		}
		for k, v := range after {
			delta[k] = v - b.daemonBase[k]
		}
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	reps, submitted := float64(len(traced)), delta["diskthru_jobs_submitted_total"]
	put("serve.queue_ms_p50", "ms", quantile(queue, 0.5))
	put("serve.run_ms_p50", "ms", quantile(runMS, 0.5))
	put("serve.run_ms_p90", "ms", quantile(runMS, 0.9))
	put("serve.workload_cache_hits", "count", per(delta["serve_cache_hits_total{workload}"], reps))
	put("serve.payload_cache_hits", "count", per(delta["serve_cache_hits_total{payload}"], reps))
	put("journal.fsyncs_per_job", "count", per(delta["serve_journal_fsyncs_total"], submitted))
	put("journal.bytes_per_job", "B", per(delta["serve_journal_bytes"], submitted))
	put("fleet.client_overhead_ms_p50", "ms", quantile(overhead, 0.5))
	put("fleet.http_requests_per_job", "count", per(requests, jobs))
	put("fleet.requeued", "count", requeued...)
	return nil
}
