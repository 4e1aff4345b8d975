package experiments

import (
	"fmt"
	"sort"

	"diskthru"
	"diskthru/internal/fault"
)

// Faults sweeps the transient media-error rate and measures what error
// recovery costs each controller system. The "none" row runs without a
// fault model at all and the "rate 0" row runs with a configured but
// zero-rate profile; the two must agree byte for byte — the injector's
// error paths cost nothing until an error actually fires. Nonzero rows
// also carry a latent sector window on disk 1, exercising the
// remap-on-final-attempt path.
func Faults(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.8, 0) })
	t := &Table{
		ID:      "faults",
		Title:   "Transient media errors: I/O time (s) vs error rate (16-KB files, alpha=0.8)",
		XLabel:  "error rate",
		Columns: []string{"Segm", "FOR", "FOR+HDC", "FOR retries", "FOR remaps"},
	}
	profile := func(rate float64) *fault.Profile {
		if rate < 0 {
			return nil // the "none" row: no fault model in the config at all
		}
		p := &fault.Profile{
			Seed:            101 + o.Seed,
			MediaErrorRate:  rate,
			RecoveryLatency: 0.02, // ~one revolution of retry housekeeping
			BackoffBase:     0.002,
			BackoffCap:      0.016,
		}
		if rate > 0 {
			// The first blocks of disk 1 hold hot files under grouped
			// allocation, so the window is actually exercised.
			p.Latent = []fault.Range{{Disk: 1, Start: 0, Blocks: 512}}
		}
		return p
	}
	rates := []struct {
		label string
		rate  float64
	}{
		{"none", -1},
		{"rate 0", 0},
		{"0.002", 0.002},
		{"0.01", 0.01},
		{"0.05", 0.05},
	}
	systems := []diskthru.System{diskthru.Segm, diskthru.FOR}
	r := newRunner(o)
	type faultRow struct {
		segm, forr, hdc *diskthru.Result
	}
	rows := make([]faultRow, len(rates))
	for i, rt := range rates {
		cfg := baseConfig()
		cfg.Faults = profile(rt.rate)
		res := r.compare(wr, cfg, systems)
		rows[i].segm, rows[i].forr = res[0], res[1]
		rows[i].hdc = r.run(wr, cfg.WithSystem(diskthru.FOR).WithHDC(1024))
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, rt := range rates {
		row := rows[i]
		t.AddRow(rt.label, row.segm.IOTime, row.forr.IOTime, row.hdc.IOTime,
			float64(row.forr.Retries), float64(sumRemaps(row.forr)))
	}
	if rows[0].forr.IOTime != rows[1].forr.IOTime || rows[0].segm.IOTime != rows[1].segm.IOTime {
		t.Note("WARNING: a zero-rate fault model perturbed the fault-free result")
	}
	t.Note("\"none\" carries no fault model; \"rate 0\" carries a zero-rate injector — identical rows demonstrate the error paths are free until an error fires")
	t.Note("nonzero rows add a 512-block latent window on disk 1, repaired by remapping on the final retry")
	return t, nil
}

func sumRemaps(r *diskthru.Result) uint64 {
	var n uint64
	for _, d := range r.PerDisk {
		n += d.Remaps
	}
	return n
}

// Degraded kills one disk of the striped (unmirrored) array mid-run and
// measures throughput before and after: the host watchdog times the dead
// disk's requests out, marks it down, and redirects its blocks to spare
// regions on the survivors (see fslayout.SpareLayout). Each system is
// one cell: the healthy replay runs first so the death can be scheduled
// mid-replay, then the degraded replay. Healthy results are independent
// of parallelism, so the derived schedule — and the whole table — stays
// byte-identical at any -j.
func Degraded(o Options) (*Table, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	wr := newWorkload(o, func() (*diskthru.Workload, error) { return synWorkload(o, 16, 0.8, 0) })
	t := &Table{
		ID:      "degraded",
		Title:   "Disk death mid-run: healthy vs degraded I/O time (s) (16-KB files, alpha=0.8, read-only)",
		XLabel:  "system",
		Columns: []string{"healthy (s)", "degraded (s)", "slowdown", "timeouts", "redirects"},
	}
	systems := []struct {
		label string
		sys   diskthru.System
		hdcKB int
	}{
		{"Segm", diskthru.Segm, 0},
		{"FOR", diskthru.FOR, 0},
		{"FOR+HDC", diskthru.FOR, 1024},
	}
	r := newRunner(o)
	res := make([]*resultPair, len(systems))
	for i, s := range systems {
		cfg := baseConfig().WithSystem(s.sys).WithHDC(s.hdcKB)
		res[i] = r.runThen(wr, cfg, func(healthy diskthru.Result) diskthru.Config {
			// Kill disk 2 halfway through the healthy makespan; a
			// one-second request timeout detects the death.
			d := cfg
			d.Faults = &fault.Profile{
				Seed:   101 + o.Seed,
				Deaths: []fault.Death{{Disk: 2, At: healthy.IOTime * 0.5}},
			}
			d.RequestTimeoutSeconds = 1.0
			return d
		})
	}
	if err := r.wait(); err != nil {
		return nil, err
	}
	for i, s := range systems {
		h, d := res[i].First, res[i].Second
		t.AddRow(s.label, h.IOTime, d.IOTime, d.IOTime/h.IOTime,
			float64(d.Timeouts), float64(d.Redirects))
	}
	t.Note("disk 2 dies at half the healthy makespan; its blocks re-home to striping-unit chunks dealt round-robin over the survivors' tail spare regions")
	t.Note("timeouts count watchdog firings (requests abandoned on the dead disk), redirects the sub-requests re-issued to survivors")
	return t, nil
}

// Register adds an experiment driver under a new name, for extensions
// and tests that plug drivers in at init time. It is not safe to call
// concurrently with Lookup or Names; register before serving requests.
func Register(name string, fn Func) error {
	if name == "" {
		return fmt.Errorf("experiments: empty experiment name")
	}
	if fn == nil {
		return fmt.Errorf("experiments: nil driver for %q", name)
	}
	if _, ok := byName[name]; ok {
		return fmt.Errorf("experiments: duplicate experiment %q", name)
	}
	registry = append(registry, struct {
		name string
		fn   Func
	}{name, fn})
	byName[name] = fn
	sortedNames = append(sortedNames, name)
	sort.Strings(sortedNames)
	return nil
}
