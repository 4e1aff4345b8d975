// Command diskthru regenerates the tables and figures of Carrera &
// Bianchini, "Improving Disk Throughput in Data-Intensive Servers"
// (HPCA 2004) from the simulator in this repository.
//
// Usage:
//
//	diskthru -experiment fig3          # one experiment
//	diskthru -all                      # everything, in paper order
//	diskthru -list                     # available experiment names
//	diskthru -all -quick               # reduced scales, fast
//	diskthru -experiment fig7 -web-scale 0.25
//
// Telemetry (see the Observability section of DESIGN.md):
//
//	diskthru -experiment fig3 -quick -trace t.jsonl -metrics m.csv
//	diskthru -experiment fig4 -metrics m.csv -sample-interval 0.5
//
// Profiling (see the Performance section of DESIGN.md; `make profile`
// wraps the Table 2 pipeline):
//
//	diskthru -experiment table2 -quick -cpuprofile cpu.prof -memprofile mem.prof
//
// Long runs can report live progress (percent, cells, events, ETA) on
// stderr without perturbing any result:
//
//	diskthru -all -progress
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"diskthru"
	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// main delegates to run so deferred cleanups — CPU-profile stop,
// heap-profile write, telemetry flush — execute on every exit path.
func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("experiment", "", "experiment to run (see -list)")
		all       = flag.Bool("all", false, "run every experiment in paper order")
		list      = flag.Bool("list", false, "list experiment names")
		quick     = flag.Bool("quick", false, "use reduced scales (fast, trends only)")
		synReqs   = flag.Int("syn-requests", 0, "override synthetic trace length")
		webScale  = flag.Float64("web-scale", 0, "override Web workload scale (1.0 = paper)")
		proxScale = flag.Float64("proxy-scale", 0, "override proxy workload scale")
		fileScale = flag.Float64("file-scale", 0, "override file-server workload scale")
		seed      = flag.Int64("seed", 0, "seed offset for replication runs")
		jobs      = flag.Int("j", 0, "simulation cells run concurrently per experiment (0 = GOMAXPROCS; tables are identical at any value)")
		timeout   = flag.Duration("timeout", 0, "abort the whole invocation after this long (same cancellation path diskthrud uses; 0 = no limit)")
		timing    = flag.Bool("time", false, "print wall-clock time per experiment")
		format    = flag.String("format", "text", "output format: text | csv")
		tracePath = flag.String("trace", "", "write a per-request lifecycle trace (JSONL) to this file")
		metrPath  = flag.String("metrics", "", "write per-interval time-series metrics (CSV) to this file")
		sampleInt = flag.Float64("sample-interval", probe.DefaultSampleInterval,
			"metrics sampling period in virtual seconds (non-positive selects the default)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile, taken after the last experiment, to this file")
		progress = flag.Bool("progress", false, "print a live progress line per experiment to stderr")
	)
	flag.Parse()

	// A NaN or infinite period would put the sampler's clock there and
	// sample forever; refuse it before any output file is created.
	if math.IsNaN(*sampleInt) || math.IsInf(*sampleInt, 0) {
		fmt.Fprintf(os.Stderr, "diskthru: -sample-interval %v is not a finite number of seconds\n", *sampleInt)
		flag.Usage()
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diskthru: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "diskthru: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf)
	}

	if *tracePath != "" || *metrPath != "" {
		closeTelemetry, err := installTelemetry(*tracePath, *metrPath, *sampleInt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diskthru: %v\n", err)
			return 1
		}
		defer closeTelemetry()
	}

	if *list {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return 0
	}

	opts := experiments.Defaults()
	if *quick {
		opts = experiments.Quick()
	}
	if *synReqs > 0 {
		opts.SynRequests = *synReqs
	}
	if *webScale > 0 {
		opts.WebScale = *webScale
	}
	if *proxScale > 0 {
		opts.ProxyScale = *proxScale
	}
	if *fileScale > 0 {
		opts.FileScale = *fileScale
	}
	opts.Seed = *seed
	opts.Parallelism = *jobs
	if *timeout > 0 {
		// The one-shot run rides the same context-cancellation path the
		// job daemon uses: the deadline reaches the event loop through
		// Options.Ctx and stops a replay mid-flight.
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Ctx = ctx
	}

	var names []string
	switch {
	case *all:
		names = experiments.Names()
	case *name != "":
		names = []string{*name}
	default:
		fmt.Fprintln(os.Stderr, "diskthru: pass -experiment <name>, -all, or -list")
		flag.Usage()
		return 2
	}

	for _, n := range names {
		start := time.Now()
		stopTicker := func() {}
		if *progress {
			// A fresh tracker per experiment: the denominator resets, so
			// the percent shown is this experiment's, not the sweep's.
			opts.Progress = probe.NewProgress()
			stopTicker = startProgressTicker(n, start, opts.Progress)
		}
		table, err := experiments.Run(n, opts)
		stopTicker()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "diskthru: %s: timed out after %v\n", n, *timeout)
			} else {
				fmt.Fprintf(os.Stderr, "diskthru: %s: %v\n", n, err)
			}
			return 1
		}
		switch *format {
		case "csv":
			if err := table.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "diskthru: %s: %v\n", n, err)
				return 1
			}
		default:
			table.Format(os.Stdout)
		}
		if *timing {
			fmt.Printf("(%s took %v)\n", n, time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
	return 0
}

// startProgressTicker prints one stderr status line per second while an
// experiment runs — cells done, events fired, virtual time, percent and
// ETA — from the same probe.Progress the daemon's streaming API reads.
// The returned stop function prints the final 100% line and joins the
// ticker goroutine; it is safe to call once per ticker.
func startProgressTicker(name string, start time.Time, p *probe.Progress) func() {
	done := make(chan struct{})
	finished := make(chan struct{})
	line := func() {
		s := p.Snapshot()
		frac := s.Fraction()
		eta := "?"
		if frac > 0 {
			remaining := time.Since(start).Seconds() * (1 - frac) / frac
			eta = (time.Duration(remaining * float64(time.Second))).Round(time.Second).String()
		}
		fmt.Fprintf(os.Stderr, "diskthru: %s: %3.0f%% (%d/%d cells, %d events, %.1f sim-s, eta %s)\n",
			name, 100*frac, s.CellsDone, s.CellsTotal, s.Events, s.SimSeconds, eta)
	}
	go func() {
		defer close(finished)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				line()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		line() // the terminal 100% line
	}
}

// writeHeapProfile snapshots the heap after a GC, so the profile shows
// live working-set allocation sites rather than collected garbage.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "diskthru: %v\n", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "diskthru: %v\n", err)
	}
}

// installTelemetry opens the requested export files and installs the
// process-wide telemetry default that every simulation run picks up.
// The returned function flushes and closes the files.
func installTelemetry(tracePath, metricsPath string, sampleInterval float64) (func(), error) {
	var closers []func() error
	open := func(path string) (io.Writer, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		closers = append(closers, bw.Flush, f.Close)
		return bw, nil
	}
	var traceW, metricsW io.Writer
	var err error
	if tracePath != "" {
		if traceW, err = open(tracePath); err != nil {
			return nil, err
		}
	}
	if metricsPath != "" {
		if metricsW, err = open(metricsPath); err != nil {
			return nil, err
		}
	}
	diskthru.SetDefaultTelemetry(probe.NewTelemetry(traceW, metricsW, sampleInterval))
	return func() {
		diskthru.SetDefaultTelemetry(nil)
		for _, c := range closers {
			if err := c(); err != nil {
				fmt.Fprintf(os.Stderr, "diskthru: telemetry flush: %v\n", err)
			}
		}
	}, nil
}
