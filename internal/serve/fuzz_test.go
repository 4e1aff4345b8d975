package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"diskthru/internal/experiments"
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
		{Experiment: "table2", Format: "csv", Seed: 7, StreamStats: true, IdempotencyKey: "k"},
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
