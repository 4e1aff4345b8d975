package experiments

import (
	"fmt"
	"sync"
	"testing"
)

// TestWorkloadCacheReuse pins the workload cache contract through
// ScopeCache: a second invocation of one warm scope hits every
// construction site, an invocation of another scope drops the first
// scope's workloads and counts them as evictions, and tables are
// byte-identical with the cache on or off.
func TestWorkloadCacheReuse(t *testing.T) {
	var c ScopeCache
	o := tiny()
	o.WorkloadCache = &c
	cold, err := Run("fig4", tiny())
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	for i := 0; i < 2; i++ {
		warm, err := Run("fig4", o)
		if err != nil {
			t.Fatalf("cached run %d: %v", i, err)
		}
		if warm.String() != cold.String() {
			t.Fatalf("cached run %d perturbed the table", i)
		}
	}
	sites := c.Misses.Load()
	if sites == 0 {
		t.Fatal("fig4 built no workloads through the cache")
	}
	if hits := c.Hits.Load(); hits != sites {
		t.Fatalf("second invocation hit %d of %d construction sites", hits, sites)
	}
	if ev := c.Evictions.Load(); ev != 0 {
		t.Fatalf("%d evictions within one scope", ev)
	}

	o.Seed = 1 // another warm scope
	other, err := Run("fig4", o)
	if err != nil {
		t.Fatalf("other scope: %v", err)
	}
	if ev := c.Evictions.Load(); ev != sites {
		t.Fatalf("scope change evicted %d workloads, want %d", ev, sites)
	}
	if hits := c.Hits.Load(); hits != sites {
		t.Fatalf("other scope hit the first scope's workloads (%d hits)", hits-sites)
	}
	o.WorkloadCache = nil
	if plain, err := Run("fig4", o); err != nil {
		t.Fatalf("uncached other scope: %v", err)
	} else if plain.String() != other.String() {
		t.Fatal("workload cache perturbed the other scope's table")
	}
}

// TestScopeCacheConcurrentScopes drives one ScopeCache from several
// goroutines whose lookups alternate between two scopes, for the race
// detector; every lookup is counted exactly once.
func TestScopeCacheConcurrentScopes(t *testing.T) {
	var c ScopeCache
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("fig%d|seed=0%s%d", (g+i)%2, siteSep, i%3)
				if _, ok := c.Get(key); !ok {
					c.Add(key, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Hits.Load() + c.Misses.Load(); got != workers*rounds {
		t.Fatalf("counted %d lookups, want %d", got, workers*rounds)
	}
	if c.Evictions.Load() == 0 {
		t.Fatal("alternating scopes never evicted")
	}
}
