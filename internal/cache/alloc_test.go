package cache

import "testing"

// Every media read and cache hit goes through these paths, so a
// regression to per-call garbage multiplies across every simulated
// request. Each guard warms the structure to its working size first:
// the run table and the block slab grow once, then churn in place.

func TestSegmentStoreAllocFree(t *testing.T) {
	s := NewSegmentStore(27, 32)
	lba := int64(1000)
	churn := func() {
		for i := 0; i < 64; i++ {
			s.Insert(lba, 32)
			// Re-read the middle of that stream, splitting its run.
			s.Insert(lba+8, 8)
			s.Touch(lba + 3)
			s.Contains(lba - 40)
			lba += 48
		}
	}
	for i := 0; i < 4; i++ {
		churn()
	}
	if avg := testing.AllocsPerRun(20, churn); avg > 0 {
		t.Errorf("SegmentStore Insert/Touch/Contains allocates %.1f times per churn; want 0", avg)
	}
}

func TestBlockStoreMRUInsertAllocFree(t *testing.T) {
	s := NewBlockStore(1024, EvictMRU)
	lba := int64(0)
	fill := func() {
		// A full pool under long read-aheads: every block past the
		// first evicts one.
		for i := 0; i < 8; i++ {
			s.Insert(lba, 128)
			lba += 100
		}
	}
	for i := 0; i < 4; i++ {
		fill()
	}
	if avg := testing.AllocsPerRun(20, fill); avg > 0 {
		t.Errorf("MRU BlockStore.Insert allocates %.1f times per fill; want 0", avg)
	}
}

func TestHDCRangeQueriesAllocFree(t *testing.T) {
	h := NewHDCRegion(512)
	for b := int64(0); b < 4096; b += 8 {
		h.Pin(b)
	}
	probe := func() {
		for b := int64(0); b < 4096; b += 5 {
			h.FirstPinned(b, 16)
			h.AllPinned(b, 1)
			h.MarkDirty(b)
		}
	}
	if avg := testing.AllocsPerRun(20, probe); avg > 0 {
		t.Errorf("HDC FirstPinned/AllPinned/MarkDirty allocate %.1f times per probe; want 0", avg)
	}
}

func TestRunQueriesAllocFree(t *testing.T) {
	seg := NewSegmentStore(27, 32)
	blk := NewBlockStore(1024, EvictLRU)
	for c := int64(0); c < 27; c++ {
		seg.Insert(c*guardSpacing, 32)
		blk.Insert(c*guardSpacing, 32)
	}
	probe := func() {
		for c := int64(0); c < 27; c++ {
			b := c*guardSpacing + 8
			seg.ResidentPrefix(b, 40)
			blk.ResidentPrefix(b, 40)
			seg.TouchRange(b, 40)
			blk.TouchRange(b, 40)
		}
	}
	if avg := testing.AllocsPerRun(20, probe); avg > 0 {
		t.Errorf("ResidentPrefix/TouchRange allocate %.1f times per probe; want 0", avg)
	}
}

// TestCrossRegionChurnAllocFree moves a block pool and a pinned set
// across the guard clusters, emptying and refilling leaves, pages and
// regions: once warm, the free lists serve every node.
func TestCrossRegionChurnAllocFree(t *testing.T) {
	s := NewBlockStore(1024, EvictMRU)
	h := NewHDCRegion(512)
	round := int64(1)
	churn := func() {
		for c := int64(0); c < guardClusters; c++ {
			base := c * guardSpacing
			s.Insert(base+round%8*300, 32)
			h.Unpin(base + (round-1)%600)
			h.Pin(base + round%600)
		}
		round++
	}
	for i := 0; i < 8; i++ {
		churn()
	}
	if avg := testing.AllocsPerRun(20, churn); avg > 0 {
		t.Errorf("cross-region churn allocates %.1f times per round; want 0", avg)
	}
}

func TestDisabledHDCAllocatesNothing(t *testing.T) {
	h := NewHDCRegion(0)
	probe := func() {
		for b := int64(0); b < 1<<20; b += 4099 {
			h.Pin(b)
			h.FirstPinned(b, 32)
			h.AllPinned(b, 4)
			h.MarkDirty(b)
			h.Unpin(b)
			h.Flush()
		}
	}
	if avg := testing.AllocsPerRun(5, probe); avg > 0 || h.dir != nil {
		t.Errorf("a 0-block HDC region allocates %.1f times per probe (directory %d entries); want 0", avg, len(h.dir))
	}
}
