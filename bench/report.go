package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"

	"diskthru/internal/experiments"
	"diskthru/internal/probe"
)

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json the program reads: which
// metrics a run must print, in which units, and how far each end-to-end
// metric may worsen before -compare calls it worse.
type benchSpec struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	err := readJSON(path, &s)
	return s, err
}

// stat is one metric of one run: its median (Value), quartiles and
// every sample it was taken over.
type stat struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reduces samples to a stat. A single value (a count, a
// share) is its own median with zero spread.
func summarize(unit string, samples ...float64) stat {
	return stat{
		Unit: unit, N: len(samples), Samples: samples,
		Value: quantile(samples, 0.5), P25: quantile(samples, 0.25), P75: quantile(samples, 0.75),
	}
}

// quantile interpolates linearly between order statistics; 0 for no
// samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// report is everything one run measured. The result line is a
// projection of it; -out writes it whole.
type report struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Host      hostShape `json:"host"`
	Reps      int       `json:"reps"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	// Digests and Events key each rendered table by "experiment/seed=N",
	// N being the experiment options' seed, so runs of two commits can be
	// diffed at any seed.
	Digests map[string]string `json:"digests"`
	Events  map[string]uint64 `json:"sim_events"`
	Metrics map[string]stat   `json:"metrics"`
}

// allReports is the -workload all file.
type allReports struct {
	Runs []*report `json:"runs"`
}

// resultLine renders the final output line: the declared metrics only,
// each of which the run must have measured, in the declared unit.
func resultLine(r *report, declared []metricDecl) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(declared))
	for _, d := range declared {
		s, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			return "", fmt.Errorf("declared metric %s was not measured", d.Name)
		case s.Unit != d.Unit:
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, s.Unit, d.Unit)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			return "", fmt.Errorf("metric %s is %v", d.Name, s.Value)
		}
		metrics[d.Name] = value{Value: s.Value, Unit: s.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, attempted, r.Failed, metrics})
	return string(b), err
}

// ---- Golden digests -------------------------------------------------------

// goldenEntry pins one rendered table and its simulated-event count.
type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Events uint64 `json:"sim_events"`
}

// goldenFile maps workload -> "experiment/seed=N" -> entry.
type goldenFile map[string]map[string]goldenEntry

// goldenSeeds are the benchmark seeds golden.json covers.
var goldenSeeds = []int64{0, 7}

func loadGolden(path string) (goldenFile, error) {
	g := goldenFile{}
	err := readJSON(path, &g)
	return g, err
}

func digestKey(experiment string, seed int64) string {
	return fmt.Sprintf("%s/seed=%d", experiment, seed)
}

func digest(t *experiments.Table) string {
	sum := sha256.Sum256([]byte(t.String()))
	return hex.EncodeToString(sum[:])
}

// reference renders one experiment the plain way — experiments.Run in
// this process — and returns its digest and simulated-event count. It
// is what golden.json records and what fleet output must equal.
func reference(experiment string, o experiments.Options) (goldenEntry, error) {
	o.Parallelism = parallelism
	prog := probe.NewProgress()
	o.Progress = prog
	t, err := experiments.Run(experiment, o)
	if err != nil {
		return goldenEntry{}, fmt.Errorf("reference %s: %w", digestKey(experiment, o.Seed), err)
	}
	return goldenEntry{SHA256: digest(t), Events: prog.Snapshot().Events}, nil
}

// updateGolden regenerates the golden entries of the selected workloads
// (all when -workload is empty) at every golden seed, keeping the rest.
func updateGolden(cfg config) error {
	g, err := loadGolden(cfg.golden)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if g == nil {
		g = goldenFile{}
	}
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		entries := map[string]goldenEntry{}
		for _, seed := range goldenSeeds {
			for _, exp := range w.experiments {
				o := w.options(cfg.tiny, seed, 0)
				e, err := reference(exp, o)
				if err != nil {
					return err
				}
				entries[digestKey(exp, o.Seed)] = e
				fmt.Fprintf(os.Stderr, "golden %s %s: %s (%d events)\n", w.name, digestKey(exp, o.Seed), e.SHA256[:12], e.Events)
			}
		}
		g[w.name] = entries
	}
	return writeJSON(cfg.golden, g)
}

// ---- Comparing two runs ---------------------------------------------------

// compareReports prints one row per workload x end-to-end metric with a
// verdict, plus a row per table digest the two runs disagree on. Runs
// taken on different host shapes are refused.
func compareReports(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadReports(pathA)
	if err != nil {
		return err
	}
	b, err := loadReports(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		if ha, hb := ra.Host, rb.Host; ha.NProc != hb.NProc || ha.GOMAXPROCS != hb.GOMAXPROCS || ha.CPU != hb.CPU {
			return fmt.Errorf("refusing to compare %s: host shapes differ (%d CPUs, GOMAXPROCS %d, %s) vs (%d CPUs, GOMAXPROCS %d, %s)",
				wl.name, ha.NProc, ha.GOMAXPROCS, ha.CPU, hb.NProc, hb.GOMAXPROCS, hb.CPU)
		}
		for _, d := range spec.EndToEnd {
			sa, okA := ra.Metrics[d.Name]
			sb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			change := math.NaN()
			if sa.Value != 0 {
				change = (sb.Value - sa.Value) / sa.Value
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, sa.Value, sb.Value, 100*change, 100*d.Bound, verdict(d, sa, sb))
		}
		keys := make([]string, 0, len(ra.Digests))
		for k := range ra.Digests {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if db, ok := rb.Digests[k]; ok && db != ra.Digests[k] {
				fmt.Fprintf(tw, "%s\tdigest %s\t%.12s\t%.12s\t\t\tdiffers\n", wl.name, k, ra.Digests[k], db)
			}
		}
	}
	return tw.Flush()
}

// verdict classifies b against a: worse or better when the median moved
// by more than the bound, within-bound otherwise. A spread across reps
// (quartile distance over median) wider than the bound leaves the
// metric unresolved, unless every sample of one side beats every sample
// of the other.
func verdict(d metricDecl, a, b stat) string {
	if a.Value == 0 || b.Value == 0 {
		return "unresolved"
	}
	worse := (b.Value - a.Value) / a.Value // positive: b is worse
	if d.Better == "higher" {
		worse = -worse
	}
	spread := math.Max((a.P75-a.P25)/a.Value, (b.P75-b.P25)/b.Value)
	switch {
	case spread > d.Bound:
		switch {
		case dominates(d, b, a):
			return "better"
		case dominates(d, a, b):
			return "worse"
		}
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case -worse > d.Bound:
		return "better"
	}
	return "within-bound"
}

// dominates reports whether every sample of x beats every sample of y.
func dominates(d metricDecl, x, y stat) bool {
	if len(x.Samples) == 0 || len(y.Samples) == 0 {
		return false
	}
	xs, ys := append([]float64(nil), x.Samples...), append([]float64(nil), y.Samples...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	if d.Better == "higher" {
		return xs[0] > ys[len(ys)-1]
	}
	return xs[len(xs)-1] < ys[0]
}

// loadReports reads a single-run report or a -workload all file.
func loadReports(path string) (map[string]*report, error) {
	var all allReports
	if err := readJSON(path, &all); err != nil {
		return nil, err
	}
	if len(all.Runs) == 0 {
		var r report
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		all.Runs = []*report{&r}
	}
	out := make(map[string]*report, len(all.Runs))
	for _, r := range all.Runs {
		out[r.Workload] = r
	}
	return out, nil
}
