// Command diskthru-fleet runs an experiment sweep across a fleet of
// diskthrud daemons and prints the merged table. The merge is
// byte-identical to a single-node `diskthru -experiment X -j 1` run —
// same bytes regardless of fleet size, work stealing, or daemons dying
// mid-sweep — so its output can be diffed directly against the
// one-process tool (that diff is exactly what `make fleet-smoke` does).
//
// Usage:
//
//	diskthru-fleet -daemons 127.0.0.1:7070,127.0.0.1:7071 -experiment table2 -quick
//	diskthru-fleet -daemons host:7070 -all -quick
//	diskthru-fleet -daemons host:7070,host:7071 -experiment fig3 -window 4 -metrics-addr 127.0.0.1:9090
//
// The coordinator degrades gracefully: daemons that die mid-sweep have
// their cells requeued to survivors, and with -no-local-fallback unset
// a fleet that loses every daemon finishes the sweep locally.
//
// Every experiment is one round of independent cells: each cell is
// dispatched once (plus failover retries) and needs nothing from any
// other cell, so no dispatch waits on an earlier one's result.
//
// With -state-dir the coordinator journals every accepted cell payload;
// if the sweep is killed, rerunning with -state-dir and -resume injects
// the journaled cells and dispatches only the rest, producing the same
// bytes as an uninterrupted run. -resume refuses a journal whose
// fingerprint (experiment + scales + seed) does not match the request.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"

	"diskthru/internal/experiments"
	"diskthru/internal/fleet"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		daemons   = flag.String("daemons", "", "comma-separated daemon endpoints (host:port or http://host:port; required)")
		name      = flag.String("experiment", "", "experiment to run (see diskthru -list)")
		all       = flag.Bool("all", false, "run every experiment in paper order")
		quick     = flag.Bool("quick", false, "use reduced scales (fast, trends only)")
		synReqs   = flag.Int("syn-requests", 0, "override synthetic trace length")
		webScale  = flag.Float64("web-scale", 0, "override Web workload scale (1.0 = paper)")
		proxScale = flag.Float64("proxy-scale", 0, "override proxy workload scale")
		fileScale = flag.Float64("file-scale", 0, "override file-server workload scale")
		seed      = flag.Int64("seed", 0, "seed offset for replication runs")
		jobs      = flag.Int("j", 0, "cells in flight across the fleet (0 = daemons × window)")
		window    = flag.Int("window", 0, "max jobs in flight per daemon (0 = 2)")
		attempts  = flag.Int("max-attempts", 0, "remote dispatches per cell before giving up on the fleet (0 = 8)")
		noLocal   = flag.Bool("no-local-fallback", false, "fail the sweep instead of running exhausted cells locally")
		cellTime  = flag.Duration("cell-timeout", 0, "bound one remote cell attempt (0 = none)")
		stateDir  = flag.String("state-dir", "", "journal accepted cell payloads under this directory so a killed sweep can resume (empty = off)")
		resume    = flag.Bool("resume", false, "reload the journal in -state-dir and skip cells it already holds (requires -state-dir)")
		timeout   = flag.Duration("timeout", 0, "abort the whole sweep after this long (0 = no limit)")
		streamSt  = flag.Bool("stream-stats", false, "aggregate open-loop latencies in a constant-memory streaming sketch")
		format    = flag.String("format", "text", "output format: text | csv")
		metrAddr  = flag.String("metrics-addr", "", "serve the coordinator's /metrics on this address (empty = off)")
		logFormat = flag.String("log-format", "text", "log record encoding: text or json")
		verbose   = flag.Bool("v", false, "log every dispatch decision (debug level)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *verbose)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diskthru-fleet:", err)
		return 2
	}
	endpoints := splitList(*daemons)
	if len(endpoints) == 0 {
		fmt.Fprintln(os.Stderr, "diskthru-fleet: pass -daemons host:port[,host:port...]")
		flag.Usage()
		return 2
	}
	if *resume && *all {
		// The journal fingerprints one (experiment, options) sweep; a
		// multi-experiment resume would mismatch on the second run.
		fmt.Fprintln(os.Stderr, "diskthru-fleet: -resume works with a single -experiment, not -all")
		return 2
	}

	coord, err := fleet.New(fleet.Config{
		Endpoints:            endpoints,
		Window:               *window,
		MaxAttempts:          *attempts,
		DisableLocalFallback: *noLocal,
		CellTimeout:          *cellTime,
		StateDir:             *stateDir,
		Resume:               *resume,
		Logger:               logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "diskthru-fleet:", err)
		return 2
	}

	if *metrAddr != "" {
		ln, err := net.Listen("tcp", *metrAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diskthru-fleet:", err)
			return 1
		}
		logger.Info("metrics listening", "addr", ln.Addr().String())
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = coord.Registry().WritePrometheus(w)
		})
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				logger.Error("metrics server", "error", err.Error())
			}
		}()
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
	opts.StreamStats = *streamSt

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var names []string
	switch {
	case *all:
		names = experiments.Names()
	case *name != "":
		names = []string{*name}
	default:
		fmt.Fprintln(os.Stderr, "diskthru-fleet: pass -experiment <name> or -all")
		flag.Usage()
		return 2
	}

	for _, n := range names {
		table, err := coord.Run(ctx, n, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "diskthru-fleet: %s: %v\n", n, err)
			return 1
		}
		// Identical output path to cmd/diskthru: Format (or CSV) then a
		// blank line. This is what makes `diff <(diskthru ...)` byte-exact.
		switch *format {
		case "csv":
			if err := table.CSV(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "diskthru-fleet: %s: %v\n", n, err)
				return 1
			}
		default:
			table.Format(os.Stdout)
		}
		fmt.Println()
	}
	return 0
}

// splitList parses the -daemons flag: comma-separated, blanks dropped.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// newLogger builds the stderr slog logger in the requested encoding.
func newLogger(format string, verbose bool) (*slog.Logger, error) {
	level := slog.LevelInfo
	if verbose {
		level = slog.LevelDebug
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
