package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP surface:
//
//	POST   /v1/jobs               submit a Spec        -> 202 View | 400 | 429 | 503
//	                              (Idempotency-Key header or spec field:
//	                              200 + the original View on a replayed
//	                              key, 409 on a key/spec mismatch)
//	GET    /v1/jobs               job index            -> 200 []IndexEntry
//	                              (?limit=N keeps the N newest;
//	                              ?state=S filters by lifecycle state)
//	GET    /v1/jobs/{id}          status + result      -> 200 View | 404
//	GET    /v1/jobs/{id}/progress NDJSON live progress -> 200 stream | 404
//	DELETE /v1/jobs/{id}          cancel               -> 202 View | 404
//	GET    /healthz               liveness; 200 "ok" serving,
//	                              503 "draining" while draining
//	GET    /metrics               Prometheus text exposition
//
// All bodies are JSON except /metrics (text/plain) and the progress
// stream (application/x-ndjson). Every route is instrumented with the
// request-count and latency metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(route, h))
	}
	handle("POST /v1/jobs", "/v1/jobs", s.handleSubmit)
	handle("GET /v1/jobs", "/v1/jobs", s.handleList)
	handle("GET /v1/jobs/{id}", "/v1/jobs/{id}", s.handleGet)
	handle("GET /v1/jobs/{id}/progress", "/v1/jobs/{id}/progress", s.handleProgress)
	handle("DELETE /v1/jobs/{id}", "/v1/jobs/{id}", s.handleCancel)
	handle("GET /healthz", "/healthz", s.handleHealthz)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	return mux
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header is out; nothing useful left to do on error
}

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: " + err.Error()})
		return
	}
	if dec.More() {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad job spec: trailing data after the JSON object"})
		return
	}
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		spec.IdempotencyKey = key
	}
	v, existing, err := s.SubmitIdempotent(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Back off for about a job's service time; clients should retry
		// with jitter.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, ErrIdempotencyConflict):
		writeJSON(w, http.StatusConflict, apiError{Error: err.Error()})
	case errors.Is(err, ErrJournal):
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
	case existing:
		// An idempotent replay: the job already exists (200, not 202).
		w.Header().Set("Location", "/v1/jobs/"+v.ID)
		writeJSON(w, http.StatusOK, v)
	default:
		w.Header().Set("Location", "/v1/jobs/"+v.ID)
		writeJSON(w, http.StatusAccepted, v)
	}
}

// handleList serves the job index: compact entries (id, state,
// experiment, cell, submitted-at) in submission order. ?limit=N keeps
// only the N most recently submitted jobs; ?state=S keeps only jobs
// currently in lifecycle state S (the filter applies before the limit).
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad limit: want a non-negative integer"})
			return
		}
		limit = n
	}
	var state State
	if raw := r.URL.Query().Get("state"); raw != "" {
		switch State(raw) {
		case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
			state = State(raw)
		default:
			writeJSON(w, http.StatusBadRequest, apiError{
				Error: "bad state: want queued, running, done, failed or canceled"})
			return
		}
	}
	writeJSON(w, http.StatusOK, s.Index(limit, state))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	v, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusAccepted, v)
}

// handleHealthz reports liveness. A draining daemon answers 503 with
// status "draining" so load balancers and the fleet coordinator stop
// dispatching to it while it finishes accepted work — new submissions
// would only bounce off admission with 503 anyway.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	draining := s.Draining()
	if draining {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"draining": draining,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.reg.WritePrometheus(w) // header is out; nothing left to do on error
}

// handleProgress streams the job's progress as NDJSON — one View per
// line (result stripped; fetch it from GET /v1/jobs/{id} once done),
// roughly ten per second, until the job reaches a terminal state or the
// client goes away. The final line carries the terminal state, so a
// reader can simply consume until EOF.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	s.streams.Inc()
	defer s.streams.Dec()

	enc := json.NewEncoder(w) // Encode terminates each line with \n
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		v, ok := s.Get(id)
		if !ok { // unreachable today (jobs are never deleted), but stay safe
			return
		}
		v.Result = ""
		if err := enc.Encode(v); err != nil {
			return // client went away mid-write
		}
		if flusher != nil {
			flusher.Flush()
		}
		if v.State.terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
