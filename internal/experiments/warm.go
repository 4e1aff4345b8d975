package experiments

import (
	"fmt"

	"diskthru"
)

// Warm-start plumbing: a daemon serving many jobs over the same
// (experiment, Options) pair rebuilds identical workloads — fslayout
// allocation, trace generation, FOR bitmaps — from scratch for every
// job. Options.WorkloadCache lets the caller interpose a cache keyed by
// a deterministic fingerprint of everything that shapes workload
// construction; workloads are read-only during replay (bitmaps, rigs
// and RNGs are per-run), so one cached build can back any number of
// concurrent cells. internal/serve provides the LRU implementation.

// WorkloadCache caches built workloads across experiment invocations.
// Implementations must be safe for concurrent use; Get must only
// return workloads previously Added under the same key.
type WorkloadCache interface {
	Get(key string) (*diskthru.Workload, bool)
	Add(key string, w *diskthru.Workload)
}

// warmState scopes one experiment invocation's workload-cache keys.
// Keys are content-addressed by construction rather than by hashing
// the built artifact: the scope names the experiment and every Options
// field that shapes workloads, and the ordinal names the newWorkload
// call site in registration order — which is deterministic, because
// drivers register workloads from the driver goroutine in program
// order (the same order RunCellExec and RunWithCellExec replay).
type warmState struct {
	cache WorkloadCache
	scope string
	n     int // newWorkload ordinals handed out so far
}

// initWarm stamps the invocation's warm session onto the options —
// called by every entry point (Run, RunCellExec, RunWithCellExec) once
// the experiment name is known, since Options itself does not carry it.
func (o *Options) initWarm(name string) {
	if o.WorkloadCache == nil {
		o.warm = nil
		return
	}
	o.warm = &warmState{cache: o.WorkloadCache, scope: warmScope(name, *o)}
}

// warmScope fingerprints the workload-shaping inputs. Parallelism, Ctx,
// StreamStats and Progress are excluded on purpose: none of them affect
// what a driver builds.
func warmScope(name string, o Options) string {
	return fmt.Sprintf("%s|syn=%d|web=%g|proxy=%g|file=%g|seed=%d",
		name, o.SynRequests, o.WebScale, o.ProxyScale, o.FileScale, o.Seed)
}

// nextKey names the next newWorkload call site. Drivers register
// workloads serially from one goroutine, so no locking is needed.
func (ws *warmState) nextKey() string {
	k := fmt.Sprintf("%s|w%d", ws.scope, ws.n)
	ws.n++
	return k
}
