package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"diskthru/internal/experiments"
)

// TestCellJobRoundTrip drives the fleet's unit of work through the real
// job API: a cell-granularity submission must return exactly the bytes
// experiments.RunCell produces in-process, so a coordinator's injected
// slot is bit-identical to a local run's.
func TestCellJobRoundTrip(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	cell := experiments.CellID{Index: 1}
	v := h.submit(Spec{Experiment: "table2", Quick: true, Parallelism: 1, Cell: &cell})
	v = h.await(v.ID, 2*time.Minute, terminal)
	if v.State != StateDone {
		t.Fatalf("cell job ended %s: %s", v.State, v.Error)
	}
	got, err := base64.StdEncoding.DecodeString(v.Result)
	if err != nil {
		t.Fatalf("cell result is not base64: %v", err)
	}
	o := experiments.Quick()
	o.Parallelism = 1
	want, err := experiments.RunCell("table2", o, cell)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cell payload over the API differs from in-process RunCell (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestCellJobValidation: impossible cells are rejected up front (400)
// or fail the job (out-of-range indices are only discoverable by
// running the driver).
func TestCellJobValidation(t *testing.T) {
	h := newHarness(t, Config{QueueCap: 4})
	status, _, raw := h.request("POST", "/v1/jobs",
		map[string]any{"experiment": "fig1", "cell": map[string]int{"index": -1}})
	if status != http.StatusBadRequest {
		t.Errorf("negative cell: status %d (%s), want 400", status, raw)
	}

	cell := experiments.CellID{Index: 9999}
	v := h.submit(Spec{Experiment: "fig1", Quick: true, Parallelism: 1, Cell: &cell})
	v = h.await(v.ID, time.Minute, terminal)
	if v.State != StateFailed {
		t.Errorf("out-of-range cell job ended %s, want failed", v.State)
	}
}

// TestHealthzDraining: once a drain begins, /healthz flips to 503 with
// status "draining" — the signal the fleet coordinator and load
// balancers use to stop dispatching before the process exits.
func TestHealthzDraining(t *testing.T) {
	started := make(chan string, 1)
	run, release := blockingRunner(started)
	h := newHarness(t, Config{QueueCap: 2, Runner: run})
	h.submit(Spec{Experiment: "fig1"})
	<-started // the drain below must wait on a live job, not an empty pool

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- h.srv.Drain(ctx)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, raw := h.request("GET", "/healthz", nil)
		if status == http.StatusServiceUnavailable {
			var body struct {
				Status   string `json:"status"`
				Draining bool   `json:"draining"`
			}
			if err := json.Unmarshal(raw, &body); err != nil {
				t.Fatal(err)
			}
			if body.Status != "draining" || !body.Draining {
				t.Fatalf("draining healthz body: %s", raw)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never reported draining (last: %d %s)", status, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
