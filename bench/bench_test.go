package main

import (
	"slices"
	"testing"
)

// TestSmoke runs every workload once untraced and once traced at a tiny
// scale. Both runs must pass their own output checks, render identical
// tables with identical simulated-event counts, and between them emit
// every metric BENCHMARK.json declares, each finite, in its unit. Seed 3
// has no golden entry, so the tiny tables are checked against each
// other only.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var declared struct {
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := readJSON("../BENCHMARK.json", &declared); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range declared.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", names, workloadNames())
	}
	golden, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{workload: w.name, seed: 3, tiny: true, work: t.TempDir()}
			plain, err := run(cfg, w, golden)
			if err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			traced, err := run(cfg, w, golden)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{plain, traced} {
				if r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("trace=%v: %d of %d operations failed: %v", r.Trace, r.Failed, r.Attempted, r.Errors)
				}
			}
			// The fleet's traced run has one rep (one options seed) more.
			if len(plain.Digests) == 0 {
				t.Error("untraced run rendered nothing")
			}
			for k, d := range plain.Digests {
				if traced.Digests[k] != d || traced.Events[k] != plain.Events[k] {
					t.Errorf("%s: untraced %.12s (%d events), traced %.12s (%d events)",
						k, d, plain.Events[k], traced.Digests[k], traced.Events[k])
				}
			}
			if _, err := resultLine(plain, spec.EndToEnd); err != nil {
				t.Errorf("untraced: %v", err)
			}
			if _, err := resultLine(traced, spec.PerLayer); err != nil {
				t.Errorf("traced: %v", err)
			}
			var total float64
			for _, l := range layers {
				total += traced.Metrics[l+".cpu_share"].Value
			}
			if total < 99 || total > 101 {
				t.Errorf("cpu shares sum to %.2f%%", total)
			}
		})
	}
}
