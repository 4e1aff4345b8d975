// Package bufcache simulates the host's file-system buffer cache. The
// paper collects its disk traces beneath a real Linux buffer cache; we
// reproduce that filtering stage when synthesizing the server workloads:
// server-level file accesses stream through this LRU cache and only the
// misses (and merged writes) become disk-level trace records.
//
// The residency index is a cache.Table, direct-addressed and
// page-sparse over logical blocks, and the LRU nodes live in a flat
// index-linked slab, so the filtering stage — one probe per
// server-level block — does no hashing and no per-node allocation.
// Storage is pooled across runs via Release.
package bufcache

import (
	"fmt"
	"sync"

	"diskthru/internal/cache"
)

// nilNode terminates the recency and free lists.
const nilNode = int32(-1)

type node struct {
	block      int64
	dirty      bool
	prev, next int32
}

// slabPool recycles node slabs across runs.
var slabPool = sync.Pool{
	New: func() any {
		s := make([]node, 0, 1024)
		return &s
	},
}

// Cache is a block-granularity LRU buffer cache with write-back
// semantics: write hits are absorbed (merged), write misses allocate the
// block dirty, and evictions of dirty blocks surface as disk writes.
type Cache struct {
	capacity int
	index    *cache.Table // block -> node slab index
	nodes    []node
	slab     *[]node // pooled backing-array handle
	free     int32   // free-list head
	// head = most recently used.
	head, tail int32

	hits, misses   uint64
	absorbedWrites uint64
}

// New returns an empty cache holding capacity blocks.
func New(capacity int) *Cache {
	if capacity <= 0 {
		panic(fmt.Sprintf("bufcache: capacity %d", capacity))
	}
	slab := slabPool.Get().(*[]node)
	return &Cache{
		capacity: capacity,
		index:    cache.NewTable(),
		nodes:    (*slab)[:0],
		slab:     slab,
		free:     nilNode,
		head:     nilNode,
		tail:     nilNode,
	}
}

// Release returns the cache's index table and node slab to their pools
// for the next run. The cache must not be used afterwards.
func (c *Cache) Release() {
	c.index.Release()
	c.index = nil
	*c.slab = c.nodes[:0]
	slabPool.Put(c.slab)
	c.slab = nil
	c.nodes = nil
}

// Capacity reports the block capacity.
func (c *Cache) Capacity() int { return c.capacity }

// Len reports resident blocks.
func (c *Cache) Len() int { return c.index.Len() }

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
		Len: c.index.Len(), Capacity: c.capacity,
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
	if n, ok := c.index.Get(block); ok {
		c.hits++
		if write {
			c.absorbedWrites++
			c.nodes[n].dirty = true
		}
		c.moveToFront(n)
		return false, Eviction{}
	}
	c.misses++
	if c.index.Len() >= c.capacity {
		v := c.tail
		c.unlink(v)
		c.index.Delete(c.nodes[v].block)
		ev = Eviction{Block: c.nodes[v].block, Dirty: c.nodes[v].dirty, Happened: true}
		c.nodes[v].next = c.free
		c.free = v
	}
	n := c.alloc(block, write)
	c.index.Put(block, n)
	c.pushFront(n)
	return true, ev
}

// Clear evicts every resident block — a cold restart or working-set
// turnover. It returns the dirty blocks that must be written back.
func (c *Cache) Clear() []int64 {
	dirty := c.FlushDirty()
	c.index.Clear()
	c.nodes = c.nodes[:0]
	c.free = nilNode
	c.head, c.tail = nilNode, nilNode
	return dirty
}

// FlushDirty returns all dirty resident blocks (in LRU-to-MRU order) and
// marks them clean — the periodic sync.
func (c *Cache) FlushDirty() []int64 {
	var out []int64
	for n := c.tail; n != nilNode; n = c.nodes[n].prev {
		if c.nodes[n].dirty {
			c.nodes[n].dirty = false
			out = append(out, c.nodes[n].block)
		}
	}
	return out
}

// alloc takes a node from the free list, or extends the slab.
func (c *Cache) alloc(block int64, dirty bool) int32 {
	if n := c.free; n != nilNode {
		c.free = c.nodes[n].next
		c.nodes[n] = node{block: block, dirty: dirty, prev: nilNode, next: nilNode}
		return n
	}
	c.nodes = append(c.nodes, node{block: block, dirty: dirty, prev: nilNode, next: nilNode})
	return int32(len(c.nodes) - 1)
}

func (c *Cache) moveToFront(n int32) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *Cache) unlink(n int32) {
	nd := &c.nodes[n]
	if nd.prev != nilNode {
		c.nodes[nd.prev].next = nd.next
	} else {
		c.head = nd.next
	}
	if nd.next != nilNode {
		c.nodes[nd.next].prev = nd.prev
	} else {
		c.tail = nd.prev
	}
	nd.prev, nd.next = nilNode, nilNode
}

func (c *Cache) pushFront(n int32) {
	c.nodes[n].next = c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = n
	}
	c.head = n
	if c.tail == nilNode {
		c.tail = n
	}
}
