package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"diskthru"
	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// repResult is what one rep measured and rendered.
type repResult struct {
	r            int
	wall, cpu    float64 // seconds
	setup        float64 // seconds building input workloads (replay workloads)
	jobsMS       []float64
	attempted    int
	failed       int
	errs         []string
	digests      map[string]string // digestKey -> sha256 of the rendered table
	events       map[string]uint64 // digestKey -> simulated events
	allocMB, gcs float64
	payloads     [][]byte  // cell payloads, traced reps only
	jobs         []*jobObs // fleet cell jobs
	requeued     float64   // fleet cells retried elsewhere
}

// fail counts every operation of the rep failed and records why.
func (res *repResult) fail(format string, args ...any) {
	res.failed = res.attempted
	if res.failed == 0 {
		res.attempted, res.failed = 1, 1
	}
	res.errs = append(res.errs, fmt.Sprintf("rep %d: ", res.r)+fmt.Sprintf(format, args...))
}

// bench is one run in progress.
type bench struct {
	cfg    config
	w      *workload
	golden goldenFile
	fleet  *fleetHarness // fleet-sweep only
	setups []float64     // fleet boot-to-healthy seconds
	// daemonBase is the daemons' /metrics when the traced reps began.
	daemonBase map[string]float64
}

// run measures one workload: reps start until the window has passed
// (at least one). A traced run spends the first half of its window on
// untraced reps, the baseline trace_overhead divides by, and the second
// half on traced ones under the CPU profiler, then runs the micro-drives.
func run(cfg config, w *workload, golden goldenFile) (*report, error) {
	b := &bench{cfg: cfg, w: w, golden: golden}
	if err := os.MkdirAll(filepath.Join(cfg.work, "tmp"), 0o755); err != nil {
		return nil, err
	}
	next := 0
	var warm []*repResult
	if w.fleet {
		if err := b.setupFleet(); err != nil {
			return nil, err
		}
		defer b.fleet.close()
		warm = append(warm, b.rep(next, nil))
		next++
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var plain, traced []*repResult
	var tr *tracer
	var profile string
	if !cfg.trace {
		plain = b.measure(&next, window, nil)
	} else {
		plain = b.measure(&next, window/2, nil)
		tr = newTracer(w.name)
		var err error
		if b.fleet != nil {
			if b.daemonBase, err = b.fleet.daemonMetrics(); err != nil {
				return nil, err
			}
		}
		if profile, err = b.profiled(func() { traced = b.measure(&next, window/2, tr) }); err != nil {
			return nil, err
		}
	}
	maxRSS := maxRSSMB()
	all := slices.Concat(warm, plain, traced)
	if err := b.verify(all); err != nil {
		return nil, err
	}

	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: currentHost(), Reps: len(plain) + len(traced),
		Digests: map[string]string{}, Events: map[string]uint64{},
	}
	for _, res := range all {
		rep.Attempted += res.attempted
		rep.Failed += res.failed
		rep.Errors = append(rep.Errors, res.errs...)
		for k, v := range res.digests {
			if _, ok := rep.Digests[k]; !ok {
				rep.Digests[k], rep.Events[k] = v, res.events[k]
			}
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "bench: FAILED", e)
	}
	if !cfg.trace {
		rep.Metrics = b.endToEnd(plain, maxRSS)
		return rep, nil
	}
	var err error
	rep.Metrics, err = b.perLayer(plain, traced, tr, profile)
	if err != nil {
		return nil, err
	}
	return rep, tr.write(filepath.Join(cfg.work, "trace", w.name, "spans.json"))
}

// measure runs reps until window has passed, stopping early if a rep
// could not execute at all.
func (b *bench) measure(next *int, window time.Duration, tr *tracer) []*repResult {
	var out []*repResult
	start := time.Now()
	for len(out) == 0 || time.Since(start) < window {
		res := b.rep(*next, tr)
		*next++
		out = append(out, res)
		fmt.Fprintf(os.Stderr, "bench: %s rep %d: %.3fs wall, %.3fs cpu\n", b.w.name, res.r, res.wall, res.cpu)
		if len(res.digests) < len(b.w.experiments) {
			break
		}
	}
	return out
}

// rep runs one rep from a collected heap and measures it.
func (b *bench) rep(r int, tr *tracer) *repResult {
	res := &repResult{r: r, digests: map[string]string{}, events: map[string]uint64{}}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	start := time.Now()
	repID := tr.open(0, "rep", start)
	if b.fleet != nil {
		b.fleetRep(res, tr, repID)
	} else {
		b.replayRep(res, tr, repID)
	}
	end := time.Now()
	res.wall = end.Sub(start).Seconds()
	res.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	res.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	res.gcs = float64(ms1.NumGC - ms0.NumGC)
	tr.close(repID, end, map[string]any{"rep": r, "cpu_s": res.cpu, "ops": res.attempted})
	return res
}

// replayRep renders the workload's experiments in this process. Cells
// run through RunWithCellExec so each can be timed (and, when traced,
// recorded as a span and its payload kept); the table is byte-identical
// to experiments.Run.
func (b *bench) replayRep(res *repResult, tr *tracer, repID int) {
	for _, exp := range b.w.experiments {
		o := b.w.options(b.cfg.tiny, b.cfg.seed, res.r)
		o.Parallelism = parallelism
		prog := probe.NewProgress()
		o.Progress = prog
		builds := &buildTimer{tr: tr, parent: repID, started: map[string]time.Time{}}
		o.WorkloadCache = builds
		var mu sync.Mutex
		exec := func(id experiments.CellID, run func() ([]byte, error), _ func([]byte) error) error {
			start := time.Now()
			payload, err := run()
			end := time.Now()
			mu.Lock()
			res.attempted++
			res.jobsMS = append(res.jobsMS, ms(end.Sub(start)))
			if err != nil {
				res.failed++
			} else if tr != nil {
				res.payloads = append(res.payloads, payload)
			}
			mu.Unlock()
			tr.add(repID, "cell", start, end, map[string]any{"experiment": exp, "cell": id.String(), "payload_bytes": len(payload)})
			return err
		}
		t, err := experiments.RunWithCellExec(exp, o, exec)
		res.setup += builds.total.Seconds()
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("rep %d: %s: %v", res.r, exp, err))
			res.failed = max(res.failed, 1)
			continue
		}
		key := digestKey(exp, o.Seed)
		res.digests[key] = digest(t)
		res.events[key] = prog.Snapshot().Events
	}
}

// buildTimer is an experiments.WorkloadCache that never hits: every
// workload is still built from scratch, and the span between the miss
// and the Add is exactly one workload construction. It is how set-up
// time is measured from outside, with the experiment's own inputs.
type buildTimer struct {
	tr      *tracer
	parent  int
	mu      sync.Mutex
	started map[string]time.Time
	total   time.Duration
}

func (bt *buildTimer) Get(key string) (*diskthru.Workload, bool) {
	bt.mu.Lock()
	bt.started[key] = time.Now()
	bt.mu.Unlock()
	return nil, false
}

func (bt *buildTimer) Add(key string, w *diskthru.Workload) {
	end := time.Now()
	bt.mu.Lock()
	start := bt.started[key]
	bt.total += end.Sub(start)
	bt.mu.Unlock()
	bt.tr.add(bt.parent, "workload.build", start, end, map[string]any{"workload": w.Name(), "records": w.Records()})
}

// verify checks every rep's tables and simulated-event counts against
// golden.json where it has an entry; for replay workloads, against the
// first rep (identical inputs must give identical tables); for the
// fleet, against a plain in-process run of the same options — the
// fleet's byte-identity guarantee. A rep failing a check counts all its
// operations failed.
func (b *bench) verify(reps []*repResult) error {
	golden := b.golden[b.w.name]
	for i, res := range reps {
		for _, exp := range b.w.experiments {
			key := digestKey(exp, b.w.options(b.cfg.tiny, b.cfg.seed, res.r).Seed)
			got, ok := res.digests[key]
			if !ok {
				continue // the rep failed to render it; already counted
			}
			check := func(from string, want goldenEntry) {
				if got != want.SHA256 || res.events[key] != want.Events {
					res.fail("%s: table %.12s with %d events, %s has %.12s with %d events",
						key, got, res.events[key], from, want.SHA256, want.Events)
				}
			}
			if g, ok := golden[key]; ok {
				check("golden", g)
			}
			switch {
			case b.fleet == nil && i > 0:
				check(fmt.Sprintf("rep %d", reps[0].r), goldenEntry{SHA256: reps[0].digests[key], Events: reps[0].events[key]})
			case b.fleet != nil && (i == 0 || i == len(reps)-1 || slices.Contains(b.w.refEveryRep, exp)):
				ref, err := reference(exp, b.w.options(b.cfg.tiny, b.cfg.seed, res.r))
				if err != nil {
					return err
				}
				check("local run", ref)
			}
		}
	}
	return nil
}

// endToEnd reduces untraced reps to the end-to-end metrics.
func (b *bench) endToEnd(reps []*repResult, maxRSS float64) map[string]stat {
	var wall, cpu, setup, p50, p90 []float64
	for _, r := range reps {
		wall = append(wall, r.wall)
		cpu = append(cpu, r.cpu)
		setup = append(setup, r.setup)
		p50 = append(p50, quantile(r.jobsMS, 0.5))
		p90 = append(p90, quantile(r.jobsMS, 0.9))
	}
	if b.fleet != nil {
		setup = b.setups
	}
	return map[string]stat{
		"wall_s":     summarize("s", wall...),
		"cpu_s":      summarize("s", cpu...),
		"setup_s":    summarize("s", setup...),
		"max_rss_mb": summarize("MB", maxRSS),
		"job_p50_ms": summarize("ms", p50...),
		"job_p90_ms": summarize("ms", p90...),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
