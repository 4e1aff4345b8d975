package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/journal"
)

// FuzzSubmitSpec feeds arbitrary bytes through the POST /v1/jobs decode
// path and Spec.validate. Neither may panic, and every spec the daemon
// would accept must resolve to options the experiments accept.
func FuzzSubmitSpec(f *testing.F) {
	// The bodies of TestMalformedSubmissionsRejected and
	// TestBadSubmissions, plus accepted specs to mutate from.
	for _, body := range []string{
		`{"experiment": }`,
		`{"experiment": "fig1"`,
		`{"experiment": "fig1"} {"again": true}`,
		`{"experiment": "no-such-driver"}`,
		`{"experiment": "fig1", "timeout_seconds": -3}`,
		`{"experiment": "fig1", "bogus": 1}`,
		`{"experiment": "fig1", "quick": true}`,
	} {
		f.Add([]byte(body))
	}
	for _, sp := range []Spec{
		{Experiment: "fig999"},
		{Experiment: "fig1", Format: "yaml"},
		{Experiment: "fig1", TimeoutSeconds: -1},
		tinyCellSpec("degraded", experiments.CellID{Index: 2}),
		{Experiment: "table2", Format: "csv", Seed: 7, IdempotencyKey: "k"},
	} {
		body, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sp, err := decodeSpec(bytes.NewReader(body))
		if err != nil || sp.validate() != nil {
			return
		}
		if err := sp.options().Validate(); err != nil {
			t.Fatalf("accepted spec %s resolves to invalid options: %v", body, err)
		}
	})
}

// FuzzJournalRecover boots a daemon on a journal of arbitrary records:
// the input, split at newlines, is appended frame by frame, then
// replayed by New with StateDir set. No record may panic the daemon.
// Each journal is either refused with an error or replayed, restoring
// every job once.
func FuzzJournalRecover(f *testing.F) {
	sub := func(job, spec string) string {
		return `{"type":"submit","job":"` + job + `","spec":` + spec + `,"submitted_at":"2024-01-02T03:04:05Z"}`
	}
	for _, recs := range [][]string{
		{sub("j000001", `{"experiment":"fig1"}`)},
		{sub("j000001", `{"experiment":"fig1","idempotency_key":"k"}`),
			`{"type":"start","job":"j000001","at":"2024-01-02T03:04:06Z"}`,
			`{"type":"cell","job":"j000001","cell":{"index":0},"payload":"UgA="}`,
			`{"type":"done","job":"j000001","at":"2024-01-02T03:04:07Z","result":"r"}`},
		{sub("j000002", `{"experiment":"table2"}`),
			`{"type":"canceled","job":"j000002","error":"canceled by client"}`,
			`{"type":"snap","job":"j000002"}`},
		{sub("", `{"experiment":"fig1"}`)},
		{sub("j9", `{"experiment":"fig1"}`), sub("j9", `{"experiment":"fig2"}`),
			`{"type":"failed","job":"j9","error":"deadline"}`},
		{sub("x", `{"experiment":"fig1","timeout_seconds":-5}`), `{"type":"cell","job":"x"}`},
		{`not json`},
	} {
		f.Add([]byte(strings.Join(recs, "\n")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		w, _, err := journal.Open(filepath.Join(dir, journalFile), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range bytes.Split(data, []byte("\n")) {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		run, _ := instantRunner()
		s, err := New(Config{QueueCap: 4, Workers: 1, Runner: run, StateDir: dir})
		if err != nil {
			return // refused
		}
		seen := map[string]bool{}
		for _, v := range s.List() {
			if seen[v.ID] {
				t.Errorf("job %q replayed twice", v.ID)
			}
			seen[v.ID] = true
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx) // forced or clean, the workers have exited
		if err := s.jnl.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
