// Command bench is diskthru's benchmark: it measures the simulator end
// to end, as the people who wait on it see it (a researcher regenerating
// a figure, a daemon fleet answering cell jobs), and layer by layer, by
// timing calls into the repository's public entry points from outside.
// It changes no program code and runs everything in one process.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bash bench/run.sh --workload web-sweep --seed 0 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 0 --out a.json
//	bash bench/run.sh --compare a.json b.json
//	bash bench/run.sh --update
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. An untraced run (--trace 0) reports the
// end-to-end metrics BENCHMARK.json declares, a traced run (--trace 1)
// the per-layer ones, and writes spans.json and a CPU profile. Every
// rep's rendered tables are digested and checked against each other, a
// local reference or bench/golden.json; a mismatch counts as a failed
// operation and makes the command exit 1. See bench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// parallelism is the simulation parallelism and the HTTP connection cap:
// the 2-CPU host the benchmark was calibrated on. GOMAXPROCS follows the
// host (nproc); a different CPU count is a different host shape, which
// -compare refuses.
const parallelism = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spec     string // BENCHMARK.json: the declared metrics and bounds
	golden   string // golden digests
	work     string // scratch, spans and profiles
	tiny     bool   // shrink every workload (the smoke test)
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+") or all")
	flag.Int64Var(&cfg.seed, "seed", 0, "seed the workload inputs are made from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement window per run: reps start until it has passed")
	traceLevel := flag.Int("trace", 0, "1: traced run (per-layer metrics, spans.json, CPU profile)")
	out := flag.String("out", "", "write the full report (samples, quartiles, digests, host shape) here")
	flag.StringVar(&cfg.spec, "spec", "BENCHMARK.json", "benchmark declaration")
	flag.StringVar(&cfg.golden, "golden", filepath.Join("bench", "golden.json"), "golden table digests")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for spans, profiles and scratch files")
	update := flag.Bool("update", false, "regenerate the golden digests for seeds 0 and 7 (all workloads, or -workload)")
	compare := flag.Bool("compare", false, "compare two reports given as arguments: -compare a.json b.json")
	flag.Parse()
	cfg.trace = *traceLevel != 0
	runtime.GOMAXPROCS(runtime.NumCPU())

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two report files")
			break
		}
		err = compareReports(os.Stdout, cfg.spec, flag.Arg(0), flag.Arg(1))
	case *update:
		err = updateGolden(cfg)
	case cfg.workload == "all":
		err = runAll(cfg, *out)
	default:
		err = runOne(cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload and prints its result line. A run whose
// outputs fail a check still prints its result, then exits 1.
func runOne(cfg config, out string) error {
	w, err := lookupWorkload(cfg.workload)
	if err != nil {
		return err
	}
	spec, err := loadSpec(cfg.spec)
	if err != nil {
		return err
	}
	golden, err := loadGolden(cfg.golden)
	if err != nil {
		return err
	}
	rep, err := run(cfg, w, golden)
	if err != nil {
		return err
	}
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	line, err := resultLine(rep, declared)
	if err != nil {
		return err
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	fmt.Println(line)
	if rep.Failed > 0 {
		os.Exit(1)
	}
	return nil
}

// runAll runs every workload in its own process, one after another, so
// each reports its own peak RSS, and merges their reports.
func runAll(cfg config, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	var all allReports
	failed := false
	for _, w := range workloads {
		part := filepath.Join(cfg.work, "report-"+w.name+".json")
		if err := os.Remove(part); err != nil && !os.IsNotExist(err) {
			return err
		}
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(boolInt(cfg.trace)),
			"-spec", cfg.spec, "-golden", cfg.golden, "-work", cfg.work, "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		}
		var r report
		if err := readJSON(part, &r); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		all.Runs = append(all.Runs, &r)
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			return err
		}
	}
	sum := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]map[string]stat `json:"metrics"`
	}{Correct: !failed, Metrics: map[string]map[string]stat{}}
	for _, r := range all.Runs {
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		sum.Metrics[r.Workload] = r.Metrics
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if failed {
		os.Exit(1)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hostShape is what makes two runs comparable: same CPU count, same
// scheduler width, same CPU model. The Go version is recorded beside it.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func currentHost() hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
