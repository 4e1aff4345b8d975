package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"diskthru"
)

// Warm-start plumbing: a daemon serving many jobs over the same
// (experiment, Options) pair rebuilds identical workloads — fslayout
// allocation, trace generation, FOR bitmaps — from scratch for every
// job. Options.WorkloadCache lets the caller interpose a cache keyed by
// a deterministic fingerprint of everything that shapes workload
// construction; workloads are read-only during replay (bitmaps, rigs
// and RNGs are per-run), so one cached build can back any number of
// concurrent cells. ScopeCache is the implementation internal/serve
// uses.

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

// siteSep separates a key's warm scope from its call-site ordinal:
// keys read scope|wN.
const siteSep = "|w"

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

// warmScope fingerprints the workload-shaping inputs. Parallelism, Ctx
// and Progress are excluded on purpose: none of them affect what a
// driver builds.
func warmScope(name string, o Options) string {
	return fmt.Sprintf("%s|syn=%d|web=%g|proxy=%g|file=%g|seed=%d",
		name, o.SynRequests, o.WebScale, o.ProxyScale, o.FileScale, o.Seed)
}

// nextKey names the next newWorkload call site. Drivers register
// workloads serially from one goroutine, so no locking is needed.
func (ws *warmState) nextKey() string {
	k := fmt.Sprintf("%s%s%d", ws.scope, siteSep, ws.n)
	ws.n++
	return k
}

// keyScope recovers the warm scope a key was issued under.
func keyScope(key string) string {
	if i := strings.LastIndex(key, siteSep); i >= 0 {
		return key[:i]
	}
	return key
}

// ScopeCache is a WorkloadCache holding the workloads of the most
// recent warm scope and nothing else: a lookup or insert under another
// scope drops every workload cached so far. It therefore never holds
// more than one invocation of that experiment builds anyway, and needs
// no budget. The cells of one sweep reach a daemon back to back, so
// every reuse a sweep offers is kept; interleaving two scopes on one
// cache rebuilds workloads but can never change a result. The zero
// value is ready to use.
type ScopeCache struct {
	mu    sync.Mutex
	scope string
	ws    map[string]*diskthru.Workload

	// Hits and Misses count lookups; Evictions counts workloads dropped
	// by a scope change. Atomics, so a metrics scrape reads them
	// without taking mu.
	Hits, Misses, Evictions atomic.Int64
}

// Get returns the workload cached under key, entering key's scope.
func (c *ScopeCache) Get(key string) (*diskthru.Workload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enter(keyScope(key))
	w, ok := c.ws[key]
	if ok {
		c.Hits.Add(1)
	} else {
		c.Misses.Add(1)
	}
	return w, ok
}

// Add caches w under key, entering key's scope.
func (c *ScopeCache) Add(key string, w *diskthru.Workload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enter(keyScope(key))
	c.ws[key] = w
}

// enter makes scope the current one, dropping the previous scope's
// workloads. Callers hold mu.
func (c *ScopeCache) enter(scope string) {
	if c.ws != nil && scope == c.scope {
		return
	}
	c.Evictions.Add(int64(len(c.ws)))
	c.scope, c.ws = scope, make(map[string]*diskthru.Workload)
}
