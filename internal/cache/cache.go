// Package cache implements the disk-controller cache organizations the
// paper studies:
//
//   - SegmentStore: the conventional organization — a fixed number of
//     segments, each holding one sequential stream, replaced whole under
//     LRU (section 2.1).
//   - BlockStore: the block-based organization introduced for FOR —
//     blocks allocated on demand from a free pool and evicted
//     individually under MRU (the paper's choice) or LRU (section 4).
//   - HDCRegion: the host-guided, pinned portion of the cache with the
//     pin_blk / unpin_blk / flush_hdc command surface (section 5).
//
// All addresses are per-disk physical block numbers. None of these types
// hold data; the simulator only tracks residency.
//
// Residency is kept at the granularity each organization naturally
// has, and every organization answers run questions, because every
// request is a run. A SegmentStore holds a few dozen contiguous runs in
// one sorted run table: inserting a segment costs O(runs), and
// ResidentPrefix and TouchRange are one binary search each. A
// BlockStore's residents are scattered clusters of a few blocks, so it
// keeps them on an LRU recency list indexed by a Table: direct-addressed
// and page-sparse (a directory over 4096-block regions, 256-block pages
// of presence bits, 16-block leaves of node slots), with no hashing and
// memory that follows the clusters. An HDCRegion keeps its pinned and
// dirty sets as page-sparse bitsets on the same directory, so
// FirstPinned and AllPinned are word scans. Every node slab under the
// directory grows in 64-node chunks and reuses freed nodes from its own
// free stack; nothing is pooled across replays.
package cache

import "slices"

// Store is the read-ahead (replaceable) portion of a controller cache.
type Store interface {
	// Contains reports whether the block is resident.
	Contains(lba int64) bool
	// Touch records a hit on a resident block, updating recency.
	Touch(lba int64)
	// ResidentPrefix reports how many leading blocks of [lba, lba+n)
	// are resident.
	ResidentPrefix(lba int64, n int) int
	// TouchRange touches every resident block of [lba, lba+n) in
	// ascending order, exactly as n calls of Touch would.
	TouchRange(lba int64, n int)
	// Insert records that blocks [lba, lba+count) arrived from media,
	// evicting as needed.
	Insert(lba int64, count int)
	// Len reports resident blocks; Capacity the maximum.
	Len() int
	Capacity() int
	// Evictions reports how many blocks have been displaced so far.
	Evictions() uint64
	// Name identifies the organization for reports.
	Name() string
	// Release does nothing. It stays only because bench/micro.go still
	// calls it, and goes once that call is dropped.
	Release()
}

// Snapshot is a point-in-time occupancy reading of a Store, taken by the
// telemetry sampler.
type Snapshot struct {
	Len, Capacity int
	Evictions     uint64
}

// Snap reads a store's occupancy counters.
func Snap(s Store) Snapshot {
	return Snapshot{Len: s.Len(), Capacity: s.Capacity(), Evictions: s.Evictions()}
}

// ---- Segment store ---------------------------------------------------------

// run is a block range [start, end) resident in segment seg.
type run struct {
	start, end int64
	seg        int32
}

// SegmentStore is the conventional segment-based controller cache: up to
// NumSegments streams, whole-segment LRU replacement, at most
// SegmentBlocks blocks per segment.
//
// Residency is one table of disjoint runs sorted by start address. A
// segment owns one run when filled; a newer segment that re-reads some
// of its blocks takes them over, which trims or splits the older run.
type SegmentStore struct {
	segBlocks int
	lru       []uint64 // per-segment last-use stamp
	runs      []run    // disjoint, sorted by start
	n         int      // resident blocks
	clock     uint64
	evicted   uint64
}

// NewSegmentStore returns a store with numSegments segments of
// segmentBlocks blocks each.
func NewSegmentStore(numSegments, segmentBlocks int) *SegmentStore {
	if numSegments <= 0 || segmentBlocks <= 0 {
		panic("cache: segment store needs positive dimensions")
	}
	return &SegmentStore{
		segBlocks: segmentBlocks,
		lru:       make([]uint64, numSegments),
		runs:      make([]run, 0, 2*numSegments),
	}
}

// Name implements Store.
func (s *SegmentStore) Name() string { return "segment" }

// Capacity implements Store.
func (s *SegmentStore) Capacity() int { return len(s.lru) * s.segBlocks }

// Len implements Store.
func (s *SegmentStore) Len() int { return s.n }

// Evictions implements Store.
func (s *SegmentStore) Evictions() uint64 { return s.evicted }

// NumSegments reports the segment count.
func (s *SegmentStore) NumSegments() int { return len(s.lru) }

// Release implements Store.
func (s *SegmentStore) Release() {}

// search returns the index of the first run that ends after lba.
func (s *SegmentStore) search(lba int64) int {
	lo, hi := 0, len(s.runs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.runs[m].end <= lba {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// owner reports the segment holding lba, or -1.
func (s *SegmentStore) owner(lba int64) int32 {
	if i := s.search(lba); i < len(s.runs) && s.runs[i].start <= lba {
		return s.runs[i].seg
	}
	return -1
}

// Contains implements Store.
func (s *SegmentStore) Contains(lba int64) bool {
	return s.owner(lba) >= 0
}

// Touch implements Store.
func (s *SegmentStore) Touch(lba int64) {
	if seg := s.owner(lba); seg >= 0 {
		s.clock++
		s.lru[seg] = s.clock
	}
}

// ResidentPrefix implements Store with one binary search, then a walk
// over the abutting runs that continue the prefix.
func (s *SegmentStore) ResidentPrefix(lba int64, n int) int {
	end := lba + int64(n)
	at := lba
	for i := s.search(lba); i < len(s.runs) && s.runs[i].start <= at && at < end; i++ {
		at = s.runs[i].end
	}
	return int(min(at, end) - lba)
}

// TouchRange implements Store. The clock advances once per resident
// block crossed and each run's segment takes the stamp of its last
// block, so the stamps match per-block Touch calls bit for bit.
func (s *SegmentStore) TouchRange(lba int64, n int) {
	end := lba + int64(n)
	for i := s.search(lba); i < len(s.runs) && s.runs[i].start < end; i++ {
		r := s.runs[i]
		s.clock += uint64(min(r.end, end) - max(r.start, lba))
		s.lru[r.seg] = s.clock
	}
}

// Insert implements Store. The incoming run is treated as a new stream:
// it takes over the least-recently-used segment, evicting that segment's
// entire previous contents (the paper's whole-victim replacement). Runs
// longer than a segment are truncated to the segment size. Blocks the
// new run shares with other segments move to it.
func (s *SegmentStore) Insert(lba int64, count int) {
	if count <= 0 {
		return
	}
	if count > s.segBlocks {
		count = s.segBlocks
	}
	victim, oldest := int32(0), s.lru[0]
	for i, t := range s.lru {
		if t < oldest {
			victim, oldest = int32(i), t
		}
	}
	// Drop the victim's runs.
	w := 0
	for i, r := range s.runs {
		if r.seg == victim {
			s.n -= int(r.end - r.start)
			s.evicted += uint64(r.end - r.start)
			continue
		}
		if w != i {
			s.runs[w] = r
		}
		w++
	}
	s.runs = s.runs[:w]
	// Replace the runs the new one overlaps, runs[i:j], with what is
	// left of the first and last of them around the new run.
	end := lba + int64(count)
	i := s.search(lba)
	j := i
	for ; j < len(s.runs) && s.runs[j].start < end; j++ {
		r := s.runs[j]
		s.n -= int(min(r.end, end) - max(r.start, lba))
	}
	var pieces [3]run
	k := 0
	if i < j && s.runs[i].start < lba {
		pieces[k] = run{s.runs[i].start, lba, s.runs[i].seg}
		k++
	}
	pieces[k] = run{lba, end, victim}
	k++
	if i < j && s.runs[j-1].end > end {
		pieces[k] = run{end, s.runs[j-1].end, s.runs[j-1].seg}
		k++
	}
	s.runs = slices.Replace(s.runs, i, j, pieces[:k]...)
	s.n += count
	s.clock++
	s.lru[victim] = s.clock
}

// ---- Block store -----------------------------------------------------------

// EvictPolicy selects which resident block a BlockStore displaces.
type EvictPolicy int

const (
	// EvictLRU displaces the least recently used block.
	EvictLRU EvictPolicy = iota
	// EvictMRU displaces the most recently used block — the paper's
	// policy for FOR, which protects older streams from a burst.
	EvictMRU
)

// String names the policy.
func (p EvictPolicy) String() string {
	if p == EvictMRU {
		return "MRU"
	}
	return "LRU"
}

// BlockStore is the block-based cache organization: a pool of capacity
// blocks assigned to streams on demand, evicted one block at a time.
type BlockStore struct {
	capacity int
	policy   EvictPolicy
	lru      LRU
	evicted  uint64
}

// NewBlockStore returns an empty pool of capacity blocks using the given
// eviction policy.
func NewBlockStore(capacity int, policy EvictPolicy) *BlockStore {
	if capacity <= 0 {
		panic("cache: block store needs positive capacity")
	}
	return &BlockStore{capacity: capacity, policy: policy, lru: NewLRU(capacity)}
}

// Name implements Store.
func (s *BlockStore) Name() string { return "block-" + s.policy.String() }

// Capacity implements Store.
func (s *BlockStore) Capacity() int { return s.capacity }

// Len implements Store.
func (s *BlockStore) Len() int { return s.lru.Len() }

// Evictions implements Store.
func (s *BlockStore) Evictions() uint64 { return s.evicted }

// Policy reports the eviction policy.
func (s *BlockStore) Policy() EvictPolicy { return s.policy }

// Release implements Store.
func (s *BlockStore) Release() {}

// Contains implements Store.
func (s *BlockStore) Contains(lba int64) bool {
	return s.lru.index.Contains(lba)
}

// Touch implements Store. Under LRU a hit promotes the block; under MRU
// it does not — MRU recency is insertion order, so that a burst of new
// streams evicts its own freshly-fetched blocks rather than the blocks
// of established streams (the protection the paper's MRU choice is
// after). Promoting on hit would instead make every hit block the next
// victim, which inverts the policy's purpose on reuse-heavy workloads.
func (s *BlockStore) Touch(lba int64) {
	s.TouchRange(lba, 1)
}

// ResidentPrefix implements Store: one run query on the index.
func (s *BlockStore) ResidentPrefix(lba int64, n int) int {
	return s.lru.index.Run(lba, n)
}

// TouchRange implements Store. Under MRU it is a no-op, like Touch.
func (s *BlockStore) TouchRange(lba int64, n int) {
	if s.policy == EvictMRU {
		return
	}
	for b := lba; b < lba+int64(n); b++ {
		if nd, ok := s.lru.index.Get(b); ok {
			s.lru.MoveToFront(nd)
		}
	}
}

// Insert implements Store. Each block of the run is added most-recent
// first; when that takes the pool over capacity, a victim chosen by the
// eviction policy goes. Under MRU the victim is the most recently used block other
// than those inserted by this same call, so a long read-ahead cannot
// evict its own head. Only when every resident block belongs to the
// run does MRU fall back to the tail.
func (s *BlockStore) Insert(lba int64, count int) {
	// The blocks this call has placed are always exactly the front of
	// the recency list; behind is the first node after them, which is
	// the MRU victim (0 past the back).
	l := &s.lru
	behind := l.nodes[0].next
	for i := 0; i < count; i++ {
		n, had := l.Add(lba+int64(i), false)
		if had {
			if n == behind {
				behind = l.nodes[n].next
			}
			l.MoveToFront(n)
			continue
		}
		if l.Len() > s.capacity {
			victim := l.Back()
			if s.policy == EvictMRU && behind != 0 {
				victim = behind
			}
			if victim == behind {
				behind = l.nodes[victim].next
			}
			l.Remove(victim)
			s.evicted++
		}
	}
}
