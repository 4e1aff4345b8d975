package serve

import (
	"net/http"
	"runtime/debug"
	"time"

	"diskthru/internal/metrics"
)

// initMetrics builds the server's Prometheus registry. The lifecycle
// counters stay where they always lived — plain ints under the server
// mutex, which the API also reads — and the registry reads them through func-backed series at scrape time, so
// there is exactly one source of truth and no shadow bookkeeping to
// drift. Only quantities the mutex-guarded state cannot express
// (latency distributions, HTTP traffic) get registry-native series.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r

	locked := func(read func() float64) func() float64 {
		return func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read()
		}
	}
	r.NewCounterFunc("diskthru_jobs_submitted_total",
		"Jobs accepted into the admission queue.",
		locked(func() float64 { return float64(s.submitted) }))
	r.NewCounterFunc("diskthru_jobs_rejected_total",
		"Jobs refused at admission, by reason.",
		locked(func() float64 { return float64(s.rejectedFull) }), "reason", "queue_full")
	r.NewCounterFunc("diskthru_jobs_rejected_total",
		"Jobs refused at admission, by reason.",
		locked(func() float64 { return float64(s.rejectedDraining) }), "reason", "draining")
	r.NewCounterFunc("diskthru_jobs_finished_total",
		"Jobs that reached a terminal state, by outcome.",
		locked(func() float64 { return float64(s.done) }), "state", "done")
	r.NewCounterFunc("diskthru_jobs_finished_total",
		"Jobs that reached a terminal state, by outcome.",
		locked(func() float64 { return float64(s.failed) }), "state", "failed")
	r.NewCounterFunc("diskthru_jobs_finished_total",
		"Jobs that reached a terminal state, by outcome.",
		locked(func() float64 { return float64(s.canceled) }), "state", "canceled")
	r.NewGaugeFunc("diskthru_jobs_running",
		"Jobs currently executing on a worker.",
		locked(func() float64 { return float64(s.running) }))
	r.NewGaugeFunc("diskthru_queue_depth",
		"Jobs accepted but not yet picked up by a worker.",
		func() float64 { return float64(len(s.queue)) })
	r.NewGaugeFunc("diskthru_queue_capacity",
		"Admission queue capacity; at this depth submissions get 429.",
		func() float64 { return float64(s.cfg.QueueCap) })
	r.NewGaugeFunc("diskthru_workers",
		"Size of the worker pool.",
		func() float64 { return float64(s.cfg.Workers) })
	r.NewGaugeFunc("diskthru_draining",
		"1 while admission is closed for graceful shutdown, else 0.",
		locked(func() float64 {
			if s.draining {
				return 1
			}
			return 0
		}))

	s.jobDur = r.NewHistogramVec("diskthru_job_duration_seconds",
		"Wall-clock runtime of completed jobs, by experiment.",
		metrics.ExponentialBuckets(0.05, 2, 14), "experiment")
	s.queueWait = r.NewHistogram("diskthru_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.",
		metrics.DefBuckets)
	s.workerBusy = r.NewCounter("diskthru_worker_busy_seconds_total",
		"Cumulative wall-clock seconds workers spent executing jobs.")
	s.streams = r.NewGauge("diskthru_progress_streams_active",
		"Open NDJSON progress streams.")

	// Durability families (serve_* per the crash-safety spec). They
	// exist whether or not a state dir is configured, reading zero on a
	// memory-only daemon, so dashboards need no conditional scrape.
	r.NewCounterFunc("serve_jobs_recovered_total",
		"Jobs restored from the journal at boot, by disposition: terminal jobs reappear with their results, resumed jobs re-run from their last completed cell.",
		locked(func() float64 { return float64(s.recoveredTerminal) }), "disposition", "terminal")
	r.NewCounterFunc("serve_jobs_recovered_total",
		"Jobs restored from the journal at boot, by disposition: terminal jobs reappear with their results, resumed jobs re-run from their last completed cell.",
		locked(func() float64 { return float64(s.recoveredResumed) }), "disposition", "resumed")
	r.NewCounterFunc("serve_cells_replayed_total",
		"Simulation cells restored by injecting journaled checkpoint payloads instead of re-running them.",
		func() float64 { return float64(s.cellsReplayed.Load()) })
	r.NewCounterFunc("serve_journal_appends_total",
		"Records appended to the job journal.",
		func() float64 {
			if s.jnl == nil {
				return 0
			}
			appends, _, _ := s.jnl.Stats()
			return float64(appends)
		})
	r.NewCounterFunc("serve_journal_fsyncs_total",
		"Fsyncs issued by the job journal (one per durable append).",
		func() float64 {
			if s.jnl == nil {
				return 0
			}
			_, fsyncs, _ := s.jnl.Stats()
			return float64(fsyncs)
		})
	r.NewGaugeFunc("serve_journal_bytes",
		"Size of the job journal file in bytes.",
		func() float64 {
			if s.jnl == nil {
				return 0
			}
			_, _, bytes := s.jnl.Stats()
			return float64(bytes)
		})

	// Warm-cache families. The cache holds workloads only; the kind
	// label stays so scrapes keyed on kind="workload" keep working.
	c := &s.cache
	r.NewCounterFunc("serve_cache_hits_total",
		"Warm-cache lookups answered from memory, by entry kind.",
		func() float64 { return float64(c.Hits.Load()) }, "kind", "workload")
	r.NewCounterFunc("serve_cache_misses_total",
		"Warm-cache lookups that had to build, by entry kind.",
		func() float64 { return float64(c.Misses.Load()) }, "kind", "workload")
	r.NewCounterFunc("serve_cache_evictions_total",
		"Warm-cache entries dropped because a job of another warm scope arrived, by entry kind.",
		func() float64 { return float64(c.Evictions.Load()) }, "kind", "workload")

	s.httpReqs = r.NewCounterVec("diskthru_http_requests_total",
		"HTTP requests served, by method, route pattern and status code.",
		"method", "route", "code")
	s.httpDur = r.NewHistogramVec("diskthru_http_request_duration_seconds",
		"HTTP request latency, by route pattern.",
		metrics.DefBuckets, "route")

	info := map[string]string{"goversion": "unknown", "version": "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info["goversion"] = bi.GoVersion
		if bi.Main.Version != "" {
			info["version"] = bi.Main.Version
		}
	}
	r.NewInfo("diskthru_build_info",
		"Build metadata; the value is always 1.", info)
}

// Registry exposes the server's metric registry, for embedding the
// daemon's families into a larger process or for lint tests.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// statusWriter records the status code for the request-count metric
// while passing flushes through, so streaming handlers behind the
// middleware keep their incremental delivery.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with the HTTP request metrics. The route
// label is the registration pattern, not the raw URL, so cardinality
// stays bounded no matter what paths clients probe.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.httpReqs.With(r.Method, route, itoaCode(sw.code)).Inc()
		s.httpDur.With(route).Observe(time.Since(start).Seconds())
	}
}

// itoaCode formats the handful of status codes we emit without pulling
// strconv into the hot path's allocation profile for novel codes.
func itoaCode(code int) string {
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 400:
		return "400"
	case 404:
		return "404"
	case 429:
		return "429"
	case 503:
		return "503"
	}
	b := [3]byte{byte('0' + code/100%10), byte('0' + code/10%10), byte('0' + code%10)}
	return string(b[:])
}
