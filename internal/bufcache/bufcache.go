// Package bufcache simulates the host's file-system buffer cache. The
// paper collects its disk traces beneath a real Linux buffer cache; we
// reproduce that filtering stage when synthesizing the server workloads:
// server-level file accesses stream through this LRU cache and only the
// misses (and merged writes) become disk-level trace records.
//
// The resident blocks sit on a cache.LRU, the controller caches'
// index-linked recency list over a direct-addressed, page-sparse
// cache.Table, so the filtering stage — one probe per server-level
// block — does no hashing and no per-node allocation.
package bufcache

import (
	"fmt"

	"diskthru/internal/cache"
)

// Cache is a block-granularity LRU buffer cache with write-back
// semantics: write hits are absorbed (merged), write misses allocate the
// block dirty, and evictions of dirty blocks surface as disk writes.
type Cache struct {
	capacity int
	lru      cache.LRU

	hits, misses   uint64
	absorbedWrites uint64
}

// New returns an empty cache holding capacity blocks.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("bufcache: capacity %d", capacity))
	}
	return &Cache{capacity: capacity, lru: cache.NewLRU(capacity)}
}

// Capacity reports the block capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports resident blocks.
func (c *Cache) Len() int { return c.lru.Len() }

// Hits and Misses report the access counters.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// AbsorbedWrites reports writes merged into already-dirty or clean
// resident blocks — the effect that turns the file server's 34%
// request-level writes into 20% disk-level writes.
func (c *Cache) AbsorbedWrites() uint64 { return c.absorbedWrites }

// Counters is a point-in-time snapshot of the cache's activity, taken by
// the telemetry sampler during live replays.
type Counters struct {
	Hits, Misses, AbsorbedWrites uint64
	Len, Capacity                int
}

// Counters snapshots the cache's counters and occupancy.
func (c *Cache) Counters() Counters {
	return Counters{
		Hits: c.hits, Misses: c.misses, AbsorbedWrites: c.absorbedWrites,
		Len: c.lru.Len(), Capacity: c.capacity,
	}
}

// Eviction describes a block displaced by an Access.
type Eviction struct {
	Block int64
	// Dirty evictions must be written to disk; clean ones are victim-
	// cache candidates.
	Dirty bool
	// Happened distinguishes "no eviction" from evictions of block 0.
	Happened bool
}

// Access runs one block access through the cache. It reports whether the
// block missed (a read miss implies a disk read; a write miss dirties a
// freshly allocated block) and any eviction the insertion caused.
func (c *Cache) Access(block int64, write bool) (miss bool, ev Eviction) {
	if n, had := c.lru.Add(block, write); had {
		c.hits++
		if write {
			c.absorbedWrites++
			c.lru.MarkDirty(n)
		}
		c.lru.MoveToFront(n)
		return false, Eviction{}
	}
	c.misses++
	if c.lru.Len() > c.capacity {
		b, dirty := c.lru.Remove(c.lru.Back())
		ev = Eviction{Block: b, Dirty: dirty, Happened: true}
	}
	return true, ev
}

// Clear evicts every resident block — a cold restart or working-set
// turnover. It returns the dirty blocks that must be written back.
func (c *Cache) Clear() []int64 {
	dirty := c.FlushDirty()
	c.lru.Clear()
	return dirty
}

// FlushDirty returns all dirty resident blocks (in LRU-to-MRU order) and
// marks them clean — the periodic sync.
func (c *Cache) FlushDirty() []int64 { return c.lru.FlushDirty() }
