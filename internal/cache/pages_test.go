package cache

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// pageBases are where the cross-page scatter puts its four 64-block
// windows: across the first region boundary, across a page boundary
// inside a later region, far out on a full-size disk, and at the top
// of a directory that has to grow to reach it, with runs running past
// its end.
var pageBases = [4]int64{4096 - 30, 3*4096 + 5*256 - 40, 200 * 18504, 1<<26 - 20}

// scatter maps an address byte onto the four windows.
func scatter(a byte) int64 { return pageBases[a>>6] + int64(a&63) }

// refPrefix counts the leading blocks of [lba, lba+n) a reference holds.
func refPrefix(contains func(int64) bool, lba int64, n int) int {
	k := 0
	for k < n && contains(lba+int64(k)) {
		k++
	}
	return k
}

// rangeStep checks the run queries against per-block reference calls.
func (w *twin) rangeStep(op, a, b byte) {
	t := w.t
	lba, n := w.addr(a), 1+int(b%40)
	if op%2 == 0 {
		if got, want := w.seg.ResidentPrefix(lba, n), refPrefix(w.refSeg.Contains, lba, n); got != want {
			t.Fatalf("segment ResidentPrefix(%d, %d) = %d, reference %d", lba, n, got, want)
		}
		if got, want := w.blk.ResidentPrefix(lba, n), refPrefix(w.refBlk.Contains, lba, n); got != want {
			t.Fatalf("block ResidentPrefix(%d, %d) = %d, reference %d", lba, n, got, want)
		}
	} else {
		w.seg.TouchRange(lba, n)
		w.blk.TouchRange(lba, n)
		for i := 0; i < n; i++ {
			w.refSeg.Touch(lba + int64(i))
			w.refBlk.Touch(lba + int64(i))
		}
	}
	w.checkRecency()
	w.check()
}

// checkRecency compares the LRU state the stores' next evictions follow:
// every segment stamp and the clock, and the block store's whole
// recency list.
func (w *twin) checkRecency() {
	t := w.t
	if w.seg.clock != w.refSeg.clock {
		t.Fatalf("segment clock = %d, reference %d", w.seg.clock, w.refSeg.clock)
	}
	for i, stamp := range w.seg.lru {
		if stamp != w.refSeg.segs[i].lru {
			t.Fatalf("segment %d stamp = %d, reference %d", i, stamp, w.refSeg.segs[i].lru)
		}
	}
	if order := w.blk.lru.order(); !slices.Equal(order, w.refBlk.order) {
		t.Fatalf("block recency %v, reference %v", order, w.refBlk.order)
	}
}

// order lists the blocks on a recency list from front to back.
func (l *LRU) order() []int64 {
	var out []int64
	for n := l.nodes[0].next; n != 0; n = l.nodes[n].next {
		out = append(out, l.nodes[n].lba)
	}
	return out
}

// TestCacheEquivalenceAcrossPages replays the twin machinery through
// the cross-page scatter, so runs cross 16-block leaves, 64-block
// words, 256-block pages and 4096-block regions and reach past the
// directory's end, and mixes in run queries checked against per-block
// Contains and Touch on the references, with the LRU order that
// follows.
func TestCacheEquivalenceAcrossPages(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		data := make([]byte, 3+3*300)
		rand.New(rand.NewSource(seed)).Read(data)
		w := newTwin(t, data[0], data[1], data[2])
		w.addr = scatter
		for _, b := range pageBases {
			w.spans = append(w.spans, [2]int64{b, b + 64 + 40})
		}
		for i := 3; i+2 < len(data); i += 3 {
			if op := data[i]; op%11 >= 9 {
				w.rangeStep(op, data[i+1], data[i+2])
			} else {
				w.step(op, data[i+1], data[i+2])
			}
		}
		w.checkRecency()
	}
}

// TestTableMatchesMap drives random store/Delete streams over scattered
// addresses through a Table and a map, checking Get, Contains, Len and
// Run after every step, so emptied leaves, pages and regions are freed
// and reused many times.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := new(Table)
	ref := map[int64]int32{}
	addr := func() int64 { return scatter(byte(rng.Intn(256))) + int64(rng.Intn(40)) }
	for i := 0; i < 20000; i++ {
		b := addr()
		if rng.Intn(3) == 0 {
			_, want := ref[b]
			delete(ref, b)
			if got := tab.Delete(b); got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", i, b, got, want)
			}
		} else {
			v := rng.Int31()
			ref[b] = v
			slot, _ := tab.slot(b)
			*slot = v
		}
		q := addr()
		want, wok := ref[q]
		if got, ok := tab.Get(q); ok != wok || got != want && ok {
			t.Fatalf("step %d: Get(%d) = %d,%v, want %d,%v", i, q, got, ok, want, wok)
		}
		if tab.Contains(q) != wok {
			t.Fatalf("step %d: Contains(%d) = %v, want %v", i, q, !wok, wok)
		}
		n := 1 + rng.Intn(100)
		if got, want := tab.Run(q, n), refPrefix(func(b int64) bool { _, ok := ref[b]; return ok }, q, n); got != want {
			t.Fatalf("step %d: Run(%d, %d) = %d, want %d", i, q, n, got, want)
		}
		if tab.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, tab.Len(), len(ref))
		}
	}
	// Emptied, the table holds no node: every one is on a free list.
	for b := range ref {
		tab.Delete(b)
	}
	if tab.Len() != 0 || slices.ContainsFunc(tab.dir, func(id int32) bool { return id != 0 }) {
		t.Fatalf("emptied table: Len %d, directory %v", tab.Len(), tab.dir)
	}
}

// TestChunkedSlab checks the promises every node slab makes: a pointer
// from at stays valid while later adds grow the slab (Table.slot and
// the directory hold one across an add), a released id comes back
// zeroed, and once warm the free stack serves churn without allocating.
func TestChunkedSlab(t *testing.T) {
	var c chunked[tableLeaf]
	id := c.add()
	p := c.at(id)
	p[3] = 42
	for i := 0; i < 5<<chunkShift; i++ {
		c.add()
	}
	if c.at(id) != p || p[3] != 42 {
		t.Fatalf("node %d moved or changed as the slab grew: %p -> %p, slot %d", id, p, c.at(id), p[3])
	}
	c.release(id)
	if got := c.add(); got != id || *c.at(got) != (tableLeaf{}) {
		t.Fatalf("add after release = %d %v, want %d zeroed", got, *c.at(got), id)
	}
	ids := make([]int32, 100)
	churn := func() {
		for i := range ids {
			ids[i] = c.add()
			c.at(ids[i])[0] = int32(i)
		}
		for _, id := range ids {
			c.release(id)
		}
	}
	churn()
	n := c.n
	if avg := testing.AllocsPerRun(20, churn); avg > 0 || c.n != n {
		t.Errorf("slab churn allocates %.1f times per round and grew %d -> %d nodes; want 0 and no growth", avg, n, c.n)
	}
}

// Layout of the memory guards: the FOR caches of fig7, fig6 and longrun
// hold isolated clusters about one per 18K blocks across the whole
// 4,718,560-block disk, every disk touching at most 255 distinct
// 256-block pages.
const (
	guardClusters = 255
	guardSpacing  = 18504
)

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBlockStoreMemoryFollowsData churns a full 1024-block MRU pool
// over the guard clusters. A dense table would cost 4.7M slots, and a
// single-level table of 256-block pages about 330 KB.
func TestBlockStoreMemoryFollowsData(t *testing.T) {
	got := allocated(func() {
		s := NewBlockStore(1024, EvictMRU)
		for round := int64(0); round < 4; round++ {
			for c := int64(0); c < guardClusters; c++ {
				s.Insert(c*guardSpacing+round*40, 32)
			}
		}
	})
	if got >= 160<<10 {
		t.Fatalf("BlockStore churn allocated %d bytes, want < 160 KiB", got)
	}
}

// TestHDCMemoryFollowsData pins a 512-block region across the guard
// clusters.
func TestHDCMemoryFollowsData(t *testing.T) {
	got := allocated(func() {
		h := NewHDCRegion(512)
		for b := int64(0); h.Len() < h.Capacity(); b++ {
			c := b % guardClusters
			h.Pin(c*guardSpacing + b/guardClusters)
		}
	})
	if got >= 64<<10 {
		t.Fatalf("pinning 512 blocks allocated %d bytes, want < 64 KiB", got)
	}
}
