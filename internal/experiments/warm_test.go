package experiments

import (
	"sync"
	"testing"

	"diskthru"
)

// TestWorkloadCacheReuse pins the workload cache contract: a second
// invocation under the same cache and options hits every construction
// site, and results are byte-identical with the cache on or off.
func TestWorkloadCacheReuse(t *testing.T) {
	cold, err := Run("fig4", tiny())
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	c := &countingCache{m: make(map[string]*diskthru.Workload)}
	o := tiny()
	o.WorkloadCache = c
	first, err := Run("fig4", o)
	if err != nil {
		t.Fatalf("first cached run: %v", err)
	}
	if c.adds == 0 {
		t.Fatal("no workloads added to the cache")
	}
	if c.hits != 0 {
		t.Fatalf("%d cache hits on a cold cache", c.hits)
	}
	adds := c.adds
	second, err := Run("fig4", o)
	if err != nil {
		t.Fatalf("second cached run: %v", err)
	}
	if c.adds != adds {
		t.Fatalf("second run rebuilt workloads (%d new adds)", c.adds-adds)
	}
	if c.hits == 0 {
		t.Fatal("second run never hit the cache")
	}
	if cold.String() != first.String() || first.String() != second.String() {
		t.Fatal("workload cache perturbed the table")
	}
}

type countingCache struct {
	mu         sync.Mutex
	m          map[string]*diskthru.Workload
	hits, adds int
}

func (c *countingCache) Get(key string) (*diskthru.Workload, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.m[key]
	if ok {
		c.hits++
	}
	return w, ok
}

func (c *countingCache) Add(key string, w *diskthru.Workload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = w
	c.adds++
}
