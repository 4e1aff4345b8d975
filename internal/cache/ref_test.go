package cache

import "slices"

// The reference organizations below are the original block-at-a-time
// implementations, kept as test oracles: the equivalence fuzz target
// and property test drive them alongside the run-granular stores and
// demand identical answers. They favour obviousness over speed.

// refSegmentStore indexes every resident block to its segment slot and
// keeps each segment's blocks in a list. Inserting re-indexes the new
// run's blocks to the new segment (newest wins); evicting a segment
// drops only the blocks still indexed to it.
type refSegmentStore struct {
	segBlocks int
	segs      []refSegment
	index     map[int64]int32 // block -> segment slot
	clock     uint64
	evicted   uint64
}

type refSegment struct {
	blocks []int64 // resident block addresses, in insertion order
	lru    uint64  // last-use stamp
}

func newRefSegmentStore(numSegments, segmentBlocks int) *refSegmentStore {
	return &refSegmentStore{
		segBlocks: segmentBlocks,
		segs:      make([]refSegment, numSegments),
		index:     map[int64]int32{},
	}
}

func (s *refSegmentStore) Len() int          { return len(s.index) }
func (s *refSegmentStore) Evictions() uint64 { return s.evicted }

func (s *refSegmentStore) Contains(lba int64) bool {
	_, ok := s.index[lba]
	return ok
}

func (s *refSegmentStore) Touch(lba int64) {
	if slot, ok := s.index[lba]; ok {
		s.clock++
		s.segs[slot].lru = s.clock
	}
}

func (s *refSegmentStore) Insert(lba int64, count int) {
	if count <= 0 {
		return
	}
	if count > s.segBlocks {
		count = s.segBlocks
	}
	victim := int32(0)
	for i := 1; i < len(s.segs); i++ {
		if s.segs[i].lru < s.segs[victim].lru {
			victim = int32(i)
		}
	}
	seg := &s.segs[victim]
	for _, b := range seg.blocks {
		// A block may have been re-indexed into a newer segment (and
		// even dropped with it since); only a block still indexed to
		// the victim is evicted now.
		if slot, ok := s.index[b]; ok && slot == victim {
			delete(s.index, b)
			s.evicted++
		}
	}
	seg.blocks = seg.blocks[:0]
	for i := 0; i < count; i++ {
		b := lba + int64(i)
		seg.blocks = append(seg.blocks, b)
		s.index[b] = victim
	}
	s.clock++
	seg.lru = s.clock
}

// refBlockStore keeps the recency list as a plain slice, most recent
// first, and finds the MRU victim by walking it from the head past the
// blocks the current Insert call has placed.
type refBlockStore struct {
	capacity int
	policy   EvictPolicy
	order    []int64
	evicted  uint64
}

func newRefBlockStore(capacity int, policy EvictPolicy) *refBlockStore {
	return &refBlockStore{capacity: capacity, policy: policy}
}

func (s *refBlockStore) Len() int                { return len(s.order) }
func (s *refBlockStore) Evictions() uint64       { return s.evicted }
func (s *refBlockStore) Contains(lba int64) bool { return slices.Contains(s.order, lba) }

func (s *refBlockStore) toFront(i int) {
	b := s.order[i]
	copy(s.order[1:i+1], s.order[:i])
	s.order[0] = b
}

func (s *refBlockStore) Touch(lba int64) {
	if s.policy == EvictMRU {
		return
	}
	if i := slices.Index(s.order, lba); i >= 0 {
		s.toFront(i)
	}
}

func (s *refBlockStore) Insert(lba int64, count int) {
	for i := 0; i < count; i++ {
		b := lba + int64(i)
		if j := slices.Index(s.order, b); j >= 0 {
			s.toFront(j)
			continue
		}
		if len(s.order) >= s.capacity {
			s.evictOne(lba, i)
		}
		s.order = slices.Insert(s.order, 0, b)
	}
}

func (s *refBlockStore) evictOne(runStart int64, runLen int) {
	victim := len(s.order) - 1
	if s.policy == EvictMRU {
		for j, b := range s.order {
			if b < runStart || b >= runStart+int64(runLen) {
				victim = j
				break
			}
		}
	}
	s.order = slices.Delete(s.order, victim, victim+1)
	s.evicted++
}

// refHDCRegion maps each pinned block to its dirty flag and answers
// range questions one block at a time.
type refHDCRegion struct {
	capacity int
	pinned   map[int64]bool // block -> dirty
}

func newRefHDCRegion(capacity int) *refHDCRegion {
	return &refHDCRegion{capacity: capacity, pinned: map[int64]bool{}}
}

func (h *refHDCRegion) Len() int { return len(h.pinned) }

func (h *refHDCRegion) Contains(lba int64) bool {
	_, ok := h.pinned[lba]
	return ok
}

func (h *refHDCRegion) FirstPinned(lba int64, n int) int {
	for i := 0; i < n; i++ {
		if h.Contains(lba + int64(i)) {
			return i
		}
	}
	return n
}

func (h *refHDCRegion) AllPinned(lba int64, n int) bool {
	for i := 0; i < n; i++ {
		if !h.Contains(lba + int64(i)) {
			return false
		}
	}
	return true
}

func (h *refHDCRegion) Pin(lba int64) bool {
	if h.Contains(lba) || len(h.pinned) >= h.capacity {
		return false
	}
	h.pinned[lba] = false
	return true
}

func (h *refHDCRegion) Unpin(lba int64) (was, dirty bool) {
	d, ok := h.pinned[lba]
	if !ok {
		return false, false
	}
	delete(h.pinned, lba)
	return true, d
}

func (h *refHDCRegion) MarkDirty(lba int64) bool {
	if !h.Contains(lba) {
		return false
	}
	h.pinned[lba] = true
	return true
}

// Flush returns the dirty blocks sorted, as the production region does.
func (h *refHDCRegion) Flush() []int64 {
	var dirty []int64
	for b, d := range h.pinned {
		if d {
			dirty = append(dirty, b)
			h.pinned[b] = false
		}
	}
	slices.Sort(dirty)
	return dirty
}

func (h *refHDCRegion) DirtyCount() int {
	n := 0
	for _, d := range h.pinned {
		if d {
			n++
		}
	}
	return n
}
