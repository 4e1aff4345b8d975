package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"diskthru/internal/fleet"
	"diskthru/internal/metrics"
	"diskthru/internal/serve"
)

// fleetHarness is two in-process daemons, each behind a loopback HTTP
// server with its own journal directory, and a coordinator whose every
// request passes through a jobTracker.
type fleetHarness struct {
	servers   []*serve.Server
	listeners []*httptest.Server
	dirs      []string
	transport *http.Transport
	track     *jobTracker
	reg       *metrics.Registry
	coord     *fleet.Coordinator
}

// fleetBoots is how many times set-up boots the fleet; the median boot
// is setup_s and the last fleet booted serves the reps.
const fleetBoots = 15

func (b *bench) setupFleet() error {
	for i := 0; i < fleetBoots; i++ {
		start := time.Now()
		f, err := bootFleet(filepath.Join(b.cfg.work, "tmp"))
		if err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		if b.fleet != nil {
			b.fleet.close()
		}
		b.fleet = f
	}
	return nil
}

// bootFleet starts the daemons (Workers 1, journal on) and the
// coordinator (Window 1), and returns once both daemons have answered a
// health probe. One connection per daemon keeps the process at two.
func bootFleet(tmp string) (*fleetHarness, error) {
	f := &fleetHarness{
		transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		reg:       metrics.NewRegistry(),
	}
	f.track = &jobTracker{base: f.transport, jobs: map[string]*jobObs{}}
	var endpoints []string
	for i := 0; i < 2; i++ {
		dir, err := os.MkdirTemp(tmp, "daemon-")
		if err != nil {
			f.close()
			return nil, err
		}
		f.dirs = append(f.dirs, dir)
		srv, err := serve.New(serve.Config{Workers: 1, StateDir: dir})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		ts := httptest.NewServer(srv.Handler())
		f.listeners = append(f.listeners, ts)
		endpoints = append(endpoints, ts.URL)
	}
	client := &http.Client{Transport: f.track}
	coord, err := fleet.New(fleet.Config{Endpoints: endpoints, Window: 1, Client: client, Registry: f.reg})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	for _, ep := range endpoints {
		resp, err := client.Get(ep + "/healthz")
		if err != nil {
			f.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse only
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.close()
			return nil, fmt.Errorf("daemon %s is not healthy: %s", ep, resp.Status)
		}
	}
	return f, nil
}

func (f *fleetHarness) close() {
	for _, ts := range f.listeners {
		ts.Close()
	}
	for _, srv := range f.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = srv.Drain(ctx) // nothing is running; a timeout only cancels leftovers
		cancel()
	}
	f.transport.CloseIdleConnections()
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

// fleetRep sweeps the workload's experiments across the fleet.
func (b *bench) fleetRep(res *repResult, tr *tracer, repID int) {
	f := b.fleet
	before, err := scrape(f.reg.WritePrometheus)
	if err != nil {
		res.fail("coordinator metrics: %v", err)
		return
	}
	f.track.begin()
	for _, exp := range b.w.experiments {
		o := b.w.options(b.cfg.tiny, b.cfg.seed, res.r)
		t, err := f.coord.Run(context.Background(), exp, o)
		if err != nil {
			res.errs = append(res.errs, fmt.Sprintf("rep %d: %s: %v", res.r, exp, err))
			continue
		}
		res.digests[digestKey(exp, o.Seed)] = digest(t)
	}
	res.jobs = f.track.end()
	after, err := scrape(f.reg.WritePrometheus)
	if err != nil {
		res.errs = append(res.errs, fmt.Sprintf("rep %d: coordinator metrics: %v", res.r, err))
		after = before
	}
	local := after["fleet_cells_local_total"] - before["fleet_cells_local_total"]
	res.requeued = after["fleet_cells_requeued_total"] - before["fleet_cells_requeued_total"]

	for _, j := range res.jobs {
		res.attempted++
		if j.view.State != serve.StateDone {
			res.failed++
			continue
		}
		key := digestKey(j.view.Spec.Experiment, j.view.Spec.Seed)
		if p := j.view.Progress; p != nil {
			res.events[key] += p.Events
		}
		res.jobsMS = append(res.jobsMS, ms(j.seen.Sub(j.submit)))
		if tr != nil {
			if payload, err := base64.StdEncoding.DecodeString(j.view.Result); err == nil {
				res.payloads = append(res.payloads, payload)
			}
			j.traceInto(tr, repID)
		}
	}
	// A cell the coordinator had to run itself is a failed remote job.
	res.attempted += int(local)
	res.failed += int(local)
	if len(res.errs) > 0 {
		res.failed = max(res.failed, 1)
	}
}

// jobObs is one cell job as the coordinator's HTTP traffic shows it.
type jobObs struct {
	submit   time.Time // POST sent
	seen     time.Time // first response carrying a terminal state
	daemon   string
	requests int // HTTP requests about this job (submit, polls, cancels)
	view     serve.View
}

// traceInto records the job and, from its view's timestamps, the
// daemon's queueing and running of it.
func (j *jobObs) traceInto(tr *tracer, parent int) {
	v := j.view
	cell := ""
	if v.Spec.Cell != nil {
		cell = v.Spec.Cell.String()
	}
	id := tr.add(parent, "fleet.job", j.submit, j.seen, map[string]any{
		"daemon": j.daemon, "job": v.ID, "experiment": v.Spec.Experiment, "cell": cell,
		"state": string(v.State), "http_requests": j.requests,
	})
	if v.StartedAt != nil && v.FinishedAt != nil {
		tr.add(id, "serve.queue", v.SubmittedAt, *v.StartedAt, nil)
		tr.add(id, "serve.run", *v.StartedAt, *v.FinishedAt, nil)
	}
}

// jobTracker is the coordinator's http.RoundTripper: it forwards every
// request and reads the job views in the replies, timing each job from
// its submission to the first reply that shows it finished — what the
// coordinator itself waits for.
type jobTracker struct {
	base http.RoundTripper

	mu    sync.Mutex
	jobs  map[string]*jobObs // daemon host + job id
	order []*jobObs
}

func (t *jobTracker) begin() {
	t.mu.Lock()
	t.jobs, t.order = map[string]*jobObs{}, nil
	t.mu.Unlock()
}

// end returns the jobs submitted since begin.
func (t *jobTracker) end() []*jobObs {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order
}

func (t *jobTracker) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || !strings.HasPrefix(req.URL.Path, "/v1/jobs") {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	var v serve.View
	if json.Unmarshal(body, &v) != nil || v.ID == "" {
		return resp, nil // an error body; the coordinator handles it
	}
	now := time.Now()
	key := req.URL.Host + "/" + v.ID
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.jobs[key]
	if j == nil {
		if req.Method != http.MethodPost {
			return resp, nil // a job from before begin
		}
		j = &jobObs{submit: start, daemon: req.URL.Host}
		t.jobs[key] = j
		t.order = append(t.order, j)
	}
	j.requests++
	if j.seen.IsZero() {
		switch v.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			j.seen, j.view = now, v
		}
	}
	return resp, nil
}

// scrape renders a metrics registry (or a daemon's /metrics) and sums
// each family's samples by name, labels folded.
func scrape(render func(io.Writer) error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		return nil, err
	}
	fams, err := metrics.Parse(&buf)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if kind := s.Label("kind"); kind != "" {
				key += "{" + kind + "}"
			}
			out[key] += s.Value
		}
	}
	return out, nil
}

// daemonMetrics sums the daemons' /metrics, served in-process.
func (f *fleetHarness) daemonMetrics() (map[string]float64, error) {
	total := map[string]float64{}
	for _, srv := range f.servers {
		m, err := scrape(func(w io.Writer) error {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("daemon /metrics: %d", rec.Code)
			}
			_, err := io.Copy(w, rec.Body)
			return err
		})
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}
