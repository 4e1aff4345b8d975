package experiments

import (
	"fmt"
	"sort"
)

// Func is one experiment driver.
type Func func(Options) (*Table, error)

// registry maps CLI names to drivers, in presentation order.
var registry = []struct {
	name string
	fn   Func
}{
	{"table1", Table1},
	{"fig1", Fig1},
	{"fig2", Fig2},
	{"fig3", Fig3},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"fig9", Fig9},
	{"fig10", Fig10},
	{"fig11", Fig11},
	{"fig12", Fig12},
	{"table2", Table2},
	{"validation", Validation},
	{"model-vs-sim", ModelVsSim},
	{"ablation-for-eviction", AblationFOREviction},
	{"ablation-scheduler", AblationScheduler},
	{"ablation-coalescing", AblationCoalescing},
	{"ablation-hdc-planner", AblationHDCPlanner},
	{"ablation-segment-geometry", AblationSegmentGeometry},
	{"ext-raid1", ExtRAID1},
	{"ext-sync", ExtSyncCost},
	{"ext-issue", ExtIssueMode},
	{"ext-servers", ExtServers},
	{"ext-zoned", ExtZoned},
	{"ext-victim", ExtVictim},
	{"ext-latency", ExtLatency},
	{"ext-degraded", ExtDegraded},
	{"longrun", LongRun},
	{"faults", Faults},
	{"degraded", Degraded},
}

// byName and sortedNames are derived from the registry once at init,
// so Lookup is a map hit and errors reuse the pre-sorted name list.
var (
	byName      = make(map[string]Func, len(registry))
	sortedNames []string
)

func init() {
	for _, e := range registry {
		byName[e.name] = e.fn
	}
	sortedNames = Names()
	sort.Strings(sortedNames)
}

// Names lists all experiment names in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}

// Lookup finds a driver by name.
func Lookup(name string) (Func, error) {
	if fn, ok := byName[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", name, sortedNames)
}

// Run executes one experiment by name, every cell on the local worker
// pool.
func Run(name string, o Options) (*Table, error) {
	return RunWithCellExec(name, o, LocalExec)
}
