package cache

import (
	"math/bits"
	"slices"
	"sync"
)

// Block-table geometry. A directory entry covers a 4096-block region; a
// region node holds 16 page ids, a page 256 presence bits and 16 leaf
// ids, and a leaf the slots of 16 blocks.
const (
	leafShift   = 4
	leafBlocks  = 1 << leafShift
	pageShift   = 8
	pageBlocks  = 1 << pageShift
	pageWords   = pageBlocks / 64
	pageLeaves  = 1 << (pageShift - leafShift)
	regionShift = 12
	regionPages = 1 << (regionShift - pageShift)
)

// tableRegion maps a region's pages to page ids (slab index + 1; 0 marks
// an absent page). A free region links to the next through entry 0.
type tableRegion [regionPages]int32

// tablePage says which of its 256 blocks hold a value and maps its
// 16-block leaves to leaf ids. A free page links through leaf[0].
type tablePage struct {
	present [pageWords]uint64
	leaf    [pageLeaves]int32
}

// tableLeaf holds the values of 16 consecutive blocks. A free leaf
// links through slot 0.
type tableLeaf [leafBlocks]int32

// Table maps non-negative block addresses to int32 values. It is
// direct-addressed and page-sparse: a directory indexed by region leads
// to a region node, a 256-block page and a 16-block leaf, each in its
// own slab. A node goes to its slab's free list when the last value
// under it clears, so memory follows the resident clusters, not the
// address range they span; the small nodes keep an isolated cluster of
// a few blocks at about 250 bytes. Lookups are array indexings and a
// bit test with no hashing, and presence and runs are answered from the
// page's bit words without touching a leaf.
//
// The BlockStore's block -> node index and the host buffer cache's
// index are Tables. A Table is single-goroutine; NewTable and
// (*Table).Release recycle them across replay cells.
type Table struct {
	dir     []int32 // region -> region id; 0 = absent
	regions []tableRegion
	pages   []tablePage
	leaves  []tableLeaf
	// Free-list heads, as ids; 0 = empty.
	freeRegion, freePage, freeLeaf int32
	n                              int
}

var tablePool = sync.Pool{New: func() any { return new(Table) }}

// NewTable returns an empty table, recycled when one is available.
func NewTable() *Table { return tablePool.Get().(*Table) }

// Release clears the table and returns it for reuse. It must not be
// used afterwards.
func (t *Table) Release() {
	t.Clear()
	tablePool.Put(t)
}

// Clear removes every entry, keeping the storage.
func (t *Table) Clear() {
	clear(t.dir)
	t.dir = t.dir[:0]
	t.regions, t.pages, t.leaves = t.regions[:0], t.pages[:0], t.leaves[:0]
	t.freeRegion, t.freePage, t.freeLeaf, t.n = 0, 0, 0, 0
}

// Len reports the number of entries.
func (t *Table) Len() int { return t.n }

// page returns the page holding block b, or nil.
func (t *Table) page(b int64) *tablePage {
	r := uint64(b) >> regionShift
	if r >= uint64(len(t.dir)) || t.dir[r] == 0 {
		return nil
	}
	pid := t.regions[t.dir[r]-1][b>>pageShift&(regionPages-1)]
	if pid == 0 {
		return nil
	}
	return &t.pages[pid-1]
}

// bit locates block b in its page: the presence word and bit offset.
func bit(b int64) (w, off uint) {
	return uint(b>>6) & (pageWords - 1), uint(b) & 63
}

// Contains reports whether b has a value.
func (t *Table) Contains(b int64) bool {
	p := t.page(b)
	if p == nil {
		return false
	}
	w, off := bit(b)
	return p.present[w]>>off&1 != 0
}

// Get returns the value stored for b and whether there is one.
func (t *Table) Get(b int64) (int32, bool) {
	p := t.page(b)
	if p == nil {
		return 0, false
	}
	if w, off := bit(b); p.present[w]>>off&1 == 0 {
		return 0, false
	}
	return t.leaves[p.leaf[b>>leafShift&(pageLeaves-1)]-1][b&(leafBlocks-1)], true
}

// Put stores v under b, replacing any previous value.
func (t *Table) Put(b int64, v int32) {
	r := int(uint64(b) >> regionShift)
	if r >= len(t.dir) {
		t.dir = append(t.dir, make([]int32, r+1-len(t.dir))...)
	}
	if t.dir[r] == 0 {
		t.dir[r] = t.newRegion()
	}
	reg := &t.regions[t.dir[r]-1]
	k := b >> pageShift & (regionPages - 1)
	if reg[k] == 0 {
		reg[k] = t.newPage() // grows only the page slab: reg stays valid
	}
	p := &t.pages[reg[k]-1]
	j := b >> leafShift & (pageLeaves - 1)
	if p.leaf[j] == 0 {
		p.leaf[j] = t.newLeaf() // grows only the leaf slab: p stays valid
	}
	if w, off := bit(b); p.present[w]>>off&1 == 0 {
		p.present[w] |= 1 << off
		t.n++
	}
	t.leaves[p.leaf[j]-1][b&(leafBlocks-1)] = v
}

// Delete removes b and reports whether it was present. A leaf, page or
// region left empty goes back to its free list.
func (t *Table) Delete(b int64) bool {
	p := t.page(b)
	w, off := bit(b)
	if p == nil || p.present[w]>>off&1 == 0 {
		return false
	}
	p.present[w] &^= 1 << off
	t.n--
	// The leaf's 16 bits sit inside one presence word.
	if p.present[w]>>(off&^(leafBlocks-1))&(1<<leafBlocks-1) != 0 {
		return true
	}
	j := b >> leafShift & (pageLeaves - 1)
	t.leaves[p.leaf[j]-1][0], t.freeLeaf = t.freeLeaf, p.leaf[j]
	p.leaf[j] = 0
	if p.present != [pageWords]uint64{} {
		return true
	}
	r := uint64(b) >> regionShift
	reg := &t.regions[t.dir[r]-1]
	k := b >> pageShift & (regionPages - 1)
	p.leaf[0], t.freePage = t.freePage, reg[k]
	reg[k] = 0
	if *reg == (tableRegion{}) {
		reg[0], t.freeRegion = t.freeRegion, t.dir[r]
		t.dir[r] = 0
	}
	return true
}

// Run reports how many leading blocks of [b, b+n) have values, a
// presence word at a time.
func (t *Table) Run(b int64, n int) int {
	k := 0
	for k < n {
		p := t.page(b + int64(k))
		if p == nil {
			return k
		}
		w, off := bit(b + int64(k))
		// Ones shifted in above the word's end stop the count there.
		got := bits.TrailingZeros64(^(p.present[w] >> off))
		if k += got; got < 64-int(off) {
			break
		}
	}
	return min(k, n)
}

// newRegion takes a region node from the free list or the slab.
func (t *Table) newRegion() int32 {
	if id := t.freeRegion; id != 0 {
		reg := &t.regions[id-1]
		t.freeRegion, reg[0] = reg[0], 0
		return id
	}
	t.regions = grow(t.regions)
	return int32(len(t.regions))
}

// newPage takes a page from the free list or the slab.
func (t *Table) newPage() int32 {
	if id := t.freePage; id != 0 {
		p := &t.pages[id-1]
		t.freePage, p.leaf[0] = p.leaf[0], 0
		return id
	}
	t.pages = grow(t.pages)
	return int32(len(t.pages))
}

// newLeaf takes a leaf from the free list or the slab.
func (t *Table) newLeaf() int32 {
	if id := t.freeLeaf; id != 0 {
		t.freeLeaf = t.leaves[id-1][0]
		return id
	}
	t.leaves = grow(t.leaves)
	return int32(len(t.leaves))
}

// reserve makes room for n nodes of each kind, so a table whose size
// its owner can foresee is built without growing its slabs.
func (t *Table) reserve(n int) {
	t.regions = slices.Grow(t.regions, n-len(t.regions))
	t.pages = slices.Grow(t.pages, n-len(t.pages))
	t.leaves = slices.Grow(t.leaves, n-len(t.leaves))
}

// grow appends a zero node to a slab. A full slab doubles, starting
// at 32 nodes, so a table reaches its working size in a few
// allocations.
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(len(s), 32))
	}
	var zero T
	return append(s, zero)
}
