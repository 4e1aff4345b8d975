package serve

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// tinyCellSpec is a cell job at the smallest scale the experiments
// tests use, so real-runner tests stay fast.
func tinyCellSpec(name string, cell experiments.CellID) Spec {
	return Spec{
		Experiment: name, Quick: true, Parallelism: 1, Cell: &cell,
		SynRequests: 1200, WebScale: 0.012, ProxyScale: 0.012, FileScale: 0.0015,
	}
}

// tinyCellPayload computes the same cell in-process — the byte-identity
// reference for every warm path.
func tinyCellPayload(t *testing.T, sp Spec) []byte {
	t.Helper()
	payload, err := experiments.RunCell(sp.Experiment, sp.options(), *sp.Cell)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

func decodeResult(t *testing.T, v View) []byte {
	t.Helper()
	got, err := base64.StdEncoding.DecodeString(v.Result)
	if err != nil {
		t.Fatalf("cell result is not base64: %v", err)
	}
	return got
}

// TestCellJobsShareWorkloads: cells of one experiment run on one
// daemon share its built workloads through the scope cache — the
// second cell scrapes one workload hit — and every payload, including
// a resubmitted identical cell's, equals in-process RunCell.
func TestCellJobsShareWorkloads(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	run := func(sp Spec) []byte {
		t.Helper()
		v := h.await(h.submit(sp).ID, time.Minute, terminal)
		if v.State != StateDone {
			t.Fatalf("cell %s ended %s: %s", sp.Cell, v.State, v.Error)
		}
		got := decodeResult(t, v)
		if string(got) != string(tinyCellPayload(t, sp)) {
			t.Errorf("cell %s payload differs from in-process RunCell", sp.Cell)
		}
		return got
	}
	// Every degraded cell replays the same workload.
	first := tinyCellSpec("degraded", experiments.CellID{Index: 0})
	p0 := run(first)
	run(tinyCellSpec("degraded", experiments.CellID{Index: 1}))
	if out := scrape(t, h.srv); !strings.Contains(out, `serve_cache_hits_total{kind="workload"} 1`) {
		t.Errorf("second cell of one experiment did not scrape one workload hit:\n%s", out)
	}
	if again := run(first); string(again) != string(p0) {
		t.Error("resubmitted cell returned different bytes")
	}
	if hits := h.srv.cache.Hits.Load(); hits != 2 {
		t.Errorf("workload cache hits = %d after three cells, want 2", hits)
	}
}

// TestPhaseResultsValidation: phase_results and cell.phase were spec
// fields of older daemons. Every body that used them, well-formed or
// not, is now refused as an unknown field rather than run.
func TestPhaseResultsValidation(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	for name, body := range map[string]map[string]any{
		"without cell": {
			"experiment":    "degraded",
			"phase_results": []map[string]any{{"cell": map[string]int{"index": 0}, "payload": "eA=="}},
		},
		"with cell": {
			"experiment":    "degraded",
			"cell":          map[string]int{"index": 0},
			"phase_results": []map[string]any{{"cell": map[string]int{"index": 0}, "payload": "eA=="}},
		},
		"empty payload": {
			"experiment":    "degraded",
			"cell":          map[string]int{"index": 0},
			"phase_results": []map[string]any{{"cell": map[string]int{"index": 0}, "payload": ""}},
		},
		"cell phase": {
			"experiment": "degraded",
			"cell":       map[string]int{"phase": 1, "index": 0},
		},
	} {
		status, _, raw := h.request("POST", "/v1/jobs", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, raw)
		}
		if !strings.Contains(string(raw), "unknown field") {
			t.Errorf("%s: error %s does not name the unknown field", name, raw)
		}
	}
	var index []IndexEntry
	if status, _, raw := h.request("GET", "/v1/jobs", nil); status != http.StatusOK {
		t.Fatalf("list: status %d (%s)", status, raw)
	} else if err := json.Unmarshal(raw, &index); err != nil {
		t.Fatal(err)
	}
	if len(index) != 0 {
		t.Errorf("refused submissions left jobs behind: %+v", index)
	}
}

// TestListStateFilter: GET /v1/jobs?state= narrows the index to one
// lifecycle state and rejects unknown states.
func TestListStateFilter(t *testing.T) {
	run, _ := instantRunner()
	failing := func(ctx context.Context, sp Spec, prog *probe.Progress, ck *Checkpoint) (string, error) {
		if sp.Seed == 13 {
			return "", errors.New("boom")
		}
		return run(ctx, sp, prog, ck)
	}
	h := newHarness(t, Config{QueueCap: 8, Runner: failing})
	ok1 := h.submit(Spec{Experiment: "fig1"})
	bad := h.submit(Spec{Experiment: "fig2", Seed: 13})
	ok2 := h.submit(Spec{Experiment: "fig3"})
	h.await(ok1.ID, time.Minute, terminal)
	h.await(bad.ID, time.Minute, terminal)
	h.await(ok2.ID, time.Minute, terminal)

	var done []IndexEntry
	if status, _, raw := h.request("GET", "/v1/jobs?state=done", nil); status != http.StatusOK {
		t.Fatalf("state=done: status %d (%s)", status, raw)
	} else if err := json.Unmarshal(raw, &done); err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 || done[0].ID != ok1.ID || done[1].ID != ok2.ID {
		t.Errorf("state=done returned %+v, want [%s %s]", done, ok1.ID, ok2.ID)
	}
	var failed []IndexEntry
	if _, _, raw := h.request("GET", "/v1/jobs?state=failed", nil); true {
		if err := json.Unmarshal(raw, &failed); err != nil {
			t.Fatal(err)
		}
	}
	if len(failed) != 1 || failed[0].ID != bad.ID {
		t.Errorf("state=failed returned %+v, want [%s]", failed, bad.ID)
	}
	// The filter applies before the limit: the newest done job, not
	// "the newest job if it happens to be done".
	var tail []IndexEntry
	if _, _, raw := h.request("GET", "/v1/jobs?state=done&limit=1", nil); true {
		if err := json.Unmarshal(raw, &tail); err != nil {
			t.Fatal(err)
		}
	}
	if len(tail) != 1 || tail[0].ID != ok2.ID {
		t.Errorf("state=done&limit=1 returned %+v, want [%s]", tail, ok2.ID)
	}
	if status, _, raw := h.request("GET", "/v1/jobs?state=exploded", nil); status != http.StatusBadRequest {
		t.Errorf("bad state: status %d (%s), want 400", status, raw)
	}
}
