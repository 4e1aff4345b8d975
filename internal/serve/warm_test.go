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

// TestPayloadCacheServesResubmission: the second submission of an
// identical cell spec is answered from the content-addressed payload
// cache — same bytes, one hit on the metrics surface, no second
// simulation.
func TestPayloadCacheServesResubmission(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	sp := tinyCellSpec("degraded", experiments.CellID{Index: 0})
	v1 := h.await(h.submit(sp).ID, time.Minute, terminal)
	if v1.State != StateDone {
		t.Fatalf("first cell job ended %s: %s", v1.State, v1.Error)
	}
	v2 := h.await(h.submit(sp).ID, time.Minute, terminal)
	if v2.State != StateDone {
		t.Fatalf("second cell job ended %s: %s", v2.State, v2.Error)
	}
	if v1.Result != v2.Result {
		t.Error("cached resubmission returned different bytes")
	}
	if hits := h.srv.cache.hits[kindIdx(kindPayload)].Load(); hits != 1 {
		t.Errorf("payload cache hits = %d, want 1", hits)
	}
	if got := string(decodeResult(t, v2)); got != string(tinyCellPayload(t, sp)) {
		t.Error("cached payload differs from in-process RunCell")
	}
	out := scrape(t, h.srv)
	if !strings.Contains(out, `serve_cache_hits_total{kind="payload"} 1`) {
		t.Error("serve_cache_hits_total{kind=\"payload\"} not scraped as 1")
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
