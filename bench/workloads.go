package main

import (
	"fmt"
	"strings"

	"diskthru/internal/experiments"
)

// workload is one benchmark traffic mix. All four are closed loops: a
// rep starts when the previous one has finished, and within a rep a
// bounded pool (two simulation workers, or two daemons with one job in
// flight each) starts a cell only when one has finished. Why each was
// chosen is in BENCHMARK.json and bench/README.md.
type workload struct {
	name        string
	experiments []string // rendered in this order by every rep
	full, tiny  experiments.Options
	// fleet drives the experiments through two in-process daemons and
	// the fleet coordinator instead of calling them directly.
	fleet bool
	// refEveryRep lists the fleet experiments cheap enough to check
	// against a local run after every rep; the others are checked on the
	// warm-up and the last rep.
	refEveryRep []string
}

var workloads = []*workload{
	{
		name:        "web-sweep",
		experiments: []string{"fig7"},
		full:        experiments.Defaults(),
		tiny:        scaled(experiments.Defaults(), func(o *experiments.Options) { o.WebScale = 0.01 }),
	},
	{
		name:        "synthetic-writes",
		experiments: []string{"fig6"},
		full:        experiments.Defaults(),
		tiny:        scaled(experiments.Defaults(), func(o *experiments.Options) { o.SynRequests = 300 }),
	},
	{
		// longrun sizes its Poisson stream at 2 x SynRequests arrivals
		// per system.
		name:        "open-loop",
		experiments: []string{"longrun"},
		full:        scaled(experiments.Defaults(), func(o *experiments.Options) { o.SynRequests = 1_000_000 }),
		tiny:        scaled(experiments.Defaults(), func(o *experiments.Options) { o.SynRequests = 5000 }),
	},
	{
		name:        "fleet-sweep",
		experiments: []string{"degraded", "fig9"},
		full:        experiments.Quick(),
		tiny: scaled(experiments.Quick(), func(o *experiments.Options) {
			o.SynRequests, o.ProxyScale = 300, 0.005
		}),
		fleet:       true,
		refEveryRep: []string{"degraded"},
	},
}

func scaled(o experiments.Options, f func(*experiments.Options)) experiments.Options {
	f(&o)
	return o
}

// options returns the experiment options of rep r. Replay workloads
// replay the same inputs every rep. The fleet gives every rep its own
// options seed, 1000*seed + r, so no daemon cache can answer a repeat
// from memory; rep 0 is its untimed warm-up.
func (w *workload) options(tiny bool, seed int64, r int) experiments.Options {
	o := w.full
	if tiny {
		o = w.tiny
	}
	o.Seed = seed
	if w.fleet {
		o.Seed = 1000*seed + int64(r)
	}
	return o
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(workloadNames(), ", "))
}
