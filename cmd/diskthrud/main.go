// Command diskthrud serves the experiment registry as a job daemon:
// submissions queue behind a bounded FIFO with backpressure, a worker
// pool replays them through the simulator, and jobs can be polled,
// streamed (live progress + ETA) and cancelled while they run. See the
// Serving and Operations sections of README.md for the API and an
// example session.
//
// Usage:
//
//	diskthrud -addr 127.0.0.1:7070
//	diskthrud -addr 127.0.0.1:0 -addr-file /tmp/diskthrud.addr
//	diskthrud -queue-cap 8 -workers 2 -max-timeout 10m
//	diskthrud -log-format json -pprof-addr 127.0.0.1:6060
//	diskthrud -state-dir /var/lib/diskthrud
//
// Warm cache: the daemon keeps the built workloads of the experiment
// and scales it ran last, so the next cell of the same sweep skips
// layout allocation and trace synthesis. It is always on, holds one
// sweep's workloads at most, and never changes a result. With
// -state-dir, a SIGKILLed daemon resumes each unfinished job from its
// last journaled cell.
//
// Logs are structured (log/slog) on stderr, text by default and JSON
// with -log-format json; every job-lifecycle record carries the job id.
// -pprof-addr, when set, serves net/http/pprof on a second listener so
// the profiling surface never shares a port with the public API.
//
// SIGTERM or SIGINT drains gracefully: admission closes (new
// submissions get 503), accepted jobs finish, then the process exits.
// Jobs still alive after -drain-timeout are cancelled mid-replay. A
// second signal forces the drain immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diskthru/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:7070", "listen address (port 0 picks a free port)")
		addrFile     = flag.String("addr-file", "", "write the bound address to this file (for scripts using port 0)")
		queueCap     = flag.Int("queue-cap", 64, "bounded admission queue capacity; beyond it submissions get 429")
		workers      = flag.Int("workers", 1, "jobs executed concurrently")
		defTimeout   = flag.Duration("default-timeout", 0, "deadline for jobs that request none (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 0, "hard cap on any job deadline (0 = uncapped)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "how long a signal-triggered drain waits before cancelling jobs")
		logFormat    = flag.String("log-format", "text", "log record encoding: text or json")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off); keep it loopback-only")
		stateDir     = flag.String("state-dir", "", "directory for the crash-safety journal; jobs survive SIGKILL and resume from their last completed cell (empty = memory-only)")
	)
	flag.Parse()
	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diskthrud:", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err.Error())
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatal("write addr-file", err)
		}
	}
	logger.Info("listening", "addr", bound, "queue_cap", *queueCap, "workers", *workers)

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal("pprof listen", err)
		}
		logger.Info("pprof listening", "addr", pln.Addr().String())
		// A dedicated mux on a dedicated listener: the profiling
		// endpoints never ride the API's port, so exposing the API does
		// not expose heap dumps.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(pln, pmux); err != nil {
				logger.Error("pprof server", "error", err.Error())
			}
		}()
	}

	srv, err := serve.New(serve.Config{
		QueueCap:       *queueCap,
		Workers:        *workers,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Logger:         logger,
		StateDir:       *stateDir,
	})
	if err != nil {
		fatal("recovering state", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		fatal("serve", err)
	case <-ctx.Done():
	}
	stop() // restore default handling: a second signal kills the process

	logger.Info("signal received; draining", "timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		logger.Warn("drain timed out; in-flight jobs were cancelled", "error", err.Error())
	}
	// The API stayed up through the drain so pollers could collect
	// results; now nothing is left to observe.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown", "error", err.Error())
	}
	logger.Info("drained, exiting")
}

// newLogger builds the stderr slog logger in the requested encoding.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
