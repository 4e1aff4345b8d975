package cache

import (
	"sort"
	"testing"
	"testing/quick"
)

// ---- SegmentStore ----------------------------------------------------------

func TestSegmentStoreBasics(t *testing.T) {
	s := NewSegmentStore(4, 8)
	if s.Capacity() != 32 || s.Len() != 0 || s.NumSegments() != 4 {
		t.Fatalf("fresh store: cap=%d len=%d segs=%d", s.Capacity(), s.Len(), s.NumSegments())
	}
	if s.Name() != "segment" {
		t.Fatalf("Name = %q", s.Name())
	}
	s.Insert(100, 8)
	for i := int64(100); i < 108; i++ {
		if !s.Contains(i) {
			t.Fatalf("block %d missing after insert", i)
		}
	}
	if s.Contains(99) || s.Contains(108) {
		t.Fatal("store contains blocks outside the inserted run")
	}
}

func TestSegmentStoreWholeSegmentReplacement(t *testing.T) {
	s := NewSegmentStore(2, 4)
	s.Insert(0, 4)   // segment A
	s.Insert(100, 4) // segment B
	s.Insert(200, 4) // evicts A entirely
	for i := int64(0); i < 4; i++ {
		if s.Contains(i) {
			t.Fatalf("block %d survived whole-segment eviction", i)
		}
	}
	for i := int64(100); i < 104; i++ {
		if !s.Contains(i) {
			t.Fatalf("block %d wrongly evicted", i)
		}
	}
	if s.Evictions() != 4 {
		t.Fatalf("Evictions = %d, want 4", s.Evictions())
	}
}

func TestSegmentStoreLRUVictim(t *testing.T) {
	s := NewSegmentStore(2, 4)
	s.Insert(0, 4)
	s.Insert(100, 4)
	s.Touch(0) // segment A becomes most recent
	s.Insert(200, 4)
	if !s.Contains(0) {
		t.Fatal("touched segment was evicted")
	}
	if s.Contains(100) {
		t.Fatal("LRU segment survived")
	}
}

func TestSegmentStoreTruncatesLongRuns(t *testing.T) {
	s := NewSegmentStore(2, 4)
	s.Insert(0, 10)
	if s.Len() != 4 {
		t.Fatalf("Len = %d after oversized insert, want 4", s.Len())
	}
	if s.Contains(4) {
		t.Fatal("block beyond segment size cached")
	}
}

func TestSegmentStoreReinsertSameBlocks(t *testing.T) {
	s := NewSegmentStore(3, 4)
	s.Insert(0, 4)
	s.Insert(0, 4) // same stream read again into a fresh segment
	if !s.Contains(0) || !s.Contains(3) {
		t.Fatal("blocks lost on reinsert")
	}
	// The store must stay internally consistent: evicting the older copy
	// later must not remove the new mapping.
	s.Insert(100, 4)
	s.Insert(200, 4) // forces eviction of the stale duplicate segment
	if !s.Contains(0) {
		t.Fatal("reinserted block lost when its stale segment was evicted")
	}
}

// Evicting a segment counts only the blocks it still holds: blocks a
// newer segment took over, and that left with it, are not displaced a
// second time, even when the victim is slot 0.
func TestSegmentStoreEvictionCountsLiveBlocks(t *testing.T) {
	s := NewSegmentStore(2, 16)
	s.Insert(0, 10)   // slot 0 holds 0-9
	s.Insert(5, 10)   // slot 1 takes over 5-9 and adds 10-14
	s.Touch(0)        // slot 0 (now 0-4) becomes most recent
	s.Insert(100, 10) // evicts slot 1: 10 blocks
	s.Insert(200, 10) // evicts slot 0: 5 blocks
	if got := s.Evictions(); got != 15 {
		t.Fatalf("Evictions = %d, want 15", got)
	}
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
}

func TestSegmentStoreZeroCountNoop(t *testing.T) {
	s := NewSegmentStore(2, 4)
	s.Insert(0, 0)
	if s.Len() != 0 {
		t.Fatalf("Len = %d after zero-count insert", s.Len())
	}
}

func TestSegmentStoreBadDimensionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero segments")
		}
	}()
	NewSegmentStore(0, 4)
}

// Property: a segment store never holds more than capacity blocks nor
// more distinct segments than configured.
func TestPropertySegmentStoreCapacity(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSegmentStore(4, 8)
		for _, op := range ops {
			s.Insert(int64(op)*3, 1+int(op)%12)
		}
		return s.Len() <= s.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- BlockStore ------------------------------------------------------------

func TestBlockStoreBasics(t *testing.T) {
	s := NewBlockStore(8, EvictLRU)
	if s.Name() != "block-LRU" {
		t.Fatalf("Name = %q", s.Name())
	}
	if NewBlockStore(8, EvictMRU).Name() != "block-MRU" {
		t.Fatal("MRU name wrong")
	}
	s.Insert(10, 4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := int64(10); i < 14; i++ {
		if !s.Contains(i) {
			t.Fatalf("missing block %d", i)
		}
	}
}

func TestBlockStoreLRUEviction(t *testing.T) {
	s := NewBlockStore(3, EvictLRU)
	s.Insert(1, 1)
	s.Insert(2, 1)
	s.Insert(3, 1)
	s.Touch(1) // 1 becomes MRU; LRU order now 2,3,1
	s.Insert(4, 1)
	if s.Contains(2) {
		t.Fatal("LRU block 2 survived")
	}
	if !s.Contains(1) || !s.Contains(3) || !s.Contains(4) {
		t.Fatal("wrong victim under LRU")
	}
}

func TestBlockStoreMRUEviction(t *testing.T) {
	s := NewBlockStore(3, EvictMRU)
	s.Insert(1, 1)
	s.Insert(2, 1)
	s.Insert(3, 1) // recency: 3,2,1
	s.Insert(4, 1) // MRU victim = 3
	if s.Contains(3) {
		t.Fatal("MRU block 3 survived")
	}
	if !s.Contains(1) || !s.Contains(2) || !s.Contains(4) {
		t.Fatal("wrong victim under MRU")
	}
}

func TestBlockStoreMRUDoesNotEatOwnRun(t *testing.T) {
	s := NewBlockStore(4, EvictMRU)
	s.Insert(100, 2) // old stream
	s.Insert(0, 4)   // new 4-block run fills the pool, must evict the old stream
	for i := int64(0); i < 4; i++ {
		if !s.Contains(i) {
			t.Fatalf("run block %d evicted by its own insertion", i)
		}
	}
	if s.Contains(100) || s.Contains(101) {
		t.Fatal("old stream survived although pool was full")
	}
}

func TestBlockStoreMRUOverflowRun(t *testing.T) {
	// A run longer than capacity must still terminate and keep exactly
	// capacity blocks.
	s := NewBlockStore(4, EvictMRU)
	s.Insert(0, 10)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
}

func TestBlockStoreReinsertMovesToFront(t *testing.T) {
	s := NewBlockStore(3, EvictLRU)
	s.Insert(1, 1)
	s.Insert(2, 1)
	s.Insert(1, 1) // re-insert: recency 1,2
	s.Insert(3, 1)
	s.Insert(4, 1) // evicts 2 (LRU), not 1
	if !s.Contains(1) {
		t.Fatal("reinserted block evicted")
	}
	if s.Contains(2) {
		t.Fatal("stale block survived")
	}
}

func TestBlockStoreTouchMissIsNoop(t *testing.T) {
	s := NewBlockStore(2, EvictLRU)
	s.Touch(999) // must not panic or corrupt state
	s.Insert(1, 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestBlockStoreEvictionsCounted(t *testing.T) {
	s := NewBlockStore(2, EvictLRU)
	s.Insert(0, 2)
	s.Insert(10, 2)
	if s.Evictions() != 2 {
		t.Fatalf("Evictions = %d, want 2", s.Evictions())
	}
}

// Property: block stores never exceed capacity and Contains agrees with
// a reference set under arbitrary insert/touch sequences.
func TestPropertyBlockStoreNeverOverflows(t *testing.T) {
	for _, pol := range []EvictPolicy{EvictLRU, EvictMRU} {
		pol := pol
		f := func(ops []uint16) bool {
			s := NewBlockStore(16, pol)
			for _, op := range ops {
				lba := int64(op % 256)
				if op%3 == 0 {
					s.Touch(lba)
				} else {
					s.Insert(lba, 1+int(op%8))
				}
				if s.Len() > s.Capacity() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%v: %v", pol, err)
		}
	}
}

// Property: recency-list length always equals map size (no leaks, no
// dangling nodes), verified via Len after heavy churn.
func TestPropertyBlockStoreListMapAgree(t *testing.T) {
	f := func(ops []uint8) bool {
		s := NewBlockStore(8, EvictMRU)
		for _, op := range ops {
			s.Insert(int64(op), 1)
		}
		// Walk the list and compare with the index.
		n := 0
		seen := map[int64]bool{}
		for _, lba := range s.lru.order() {
			if seen[lba] {
				return false // duplicate node
			}
			seen[lba] = true
			if !s.Contains(lba) {
				return false
			}
			n++
		}
		return n == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// ---- HDCRegion ---------------------------------------------------------------

func TestHDCPinUnpin(t *testing.T) {
	h := NewHDCRegion(2)
	if !h.Pin(5) || !h.Pin(9) {
		t.Fatal("pins within capacity failed")
	}
	if h.Pin(11) {
		t.Fatal("pin beyond capacity succeeded")
	}
	if h.Pin(5) {
		t.Fatal("double pin succeeded")
	}
	if !h.Contains(5) || h.Contains(11) {
		t.Fatal("Contains wrong")
	}
	was, dirty := h.Unpin(5)
	if !was || dirty {
		t.Fatalf("Unpin(5) = %v,%v", was, dirty)
	}
	if was, _ := h.Unpin(5); was {
		t.Fatal("double unpin reported pinned")
	}
	if !h.Pin(11) {
		t.Fatal("pin after unpin failed")
	}
}

func TestHDCDirtyLifecycle(t *testing.T) {
	h := NewHDCRegion(4)
	h.Pin(1)
	h.Pin(2)
	if h.MarkDirty(3) {
		t.Fatal("MarkDirty on unpinned block succeeded")
	}
	if !h.MarkDirty(1) {
		t.Fatal("MarkDirty on pinned block failed")
	}
	if h.DirtyCount() != 1 {
		t.Fatalf("DirtyCount = %d", h.DirtyCount())
	}
	dirty := h.Flush()
	if len(dirty) != 1 || dirty[0] != 1 {
		t.Fatalf("Flush = %v", dirty)
	}
	if h.DirtyCount() != 0 {
		t.Fatal("dirty flag survived flush")
	}
	if !h.Contains(1) {
		t.Fatal("flush unpinned the block")
	}
	if got := h.Flush(); len(got) != 0 {
		t.Fatalf("second flush returned %v", got)
	}
}

func TestHDCUnpinDirty(t *testing.T) {
	h := NewHDCRegion(1)
	h.Pin(7)
	h.MarkDirty(7)
	was, dirty := h.Unpin(7)
	if !was || !dirty {
		t.Fatalf("Unpin dirty block = %v,%v", was, dirty)
	}
}

func TestHDCZeroCapacity(t *testing.T) {
	h := NewHDCRegion(0)
	if h.Pin(1) {
		t.Fatal("pin into zero-capacity region succeeded")
	}
	if h.Len() != 0 || h.Capacity() != 0 {
		t.Fatal("zero region has size")
	}
}

func TestHDCNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHDCRegion(-1)
}

// Property: pinned count never exceeds capacity; flush returns exactly
// the blocks marked dirty since the previous flush.
func TestPropertyHDCInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		h := NewHDCRegion(8)
		dirtySet := map[int64]bool{}
		for _, op := range ops {
			lba := int64(op % 32)
			switch op % 4 {
			case 0:
				if h.Pin(lba) && dirtySet[lba] {
					return false // fresh pin cannot be dirty
				}
			case 1:
				h.Unpin(lba)
				delete(dirtySet, lba)
			case 2:
				if h.MarkDirty(lba) {
					dirtySet[lba] = true
				}
			case 3:
				got := h.Flush()
				if len(got) != len(dirtySet) {
					return false
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				for _, b := range got {
					if !dirtySet[b] {
						return false
					}
				}
				dirtySet = map[int64]bool{}
			}
			if h.Len() > h.Capacity() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

var _ = []Store{(*SegmentStore)(nil), (*BlockStore)(nil)}

func TestSnapReflectsStoreState(t *testing.T) {
	s := NewBlockStore(4, EvictLRU)
	if got := Snap(s); got != (Snapshot{Len: 0, Capacity: 4}) {
		t.Fatalf("empty snapshot = %+v", got)
	}
	for b := int64(0); b < 6; b++ {
		s.Insert(b, 1)
	}
	got := Snap(s)
	if got.Len != 4 || got.Capacity != 4 || got.Evictions != 2 {
		t.Fatalf("snapshot = %+v", got)
	}
}
