package cache

import "math/bits"

// Block-table geometry. A directory entry covers a 4096-block region; a
// region node holds 16 page ids, a page 256 blocks, and a Table's leaf
// the slots of 16 blocks. Node slabs grow in chunks of 64 nodes.
const (
	leafShift   = 4
	leafBlocks  = 1 << leafShift
	pageShift   = 8
	pageBlocks  = 1 << pageShift
	pageWords   = pageBlocks / 64
	pageLeaves  = 1 << (pageShift - leafShift)
	regionShift = 12
	regionPages = 1 << (regionShift - pageShift)
	chunkShift  = 6
)

// chunked is a slab of nodes addressed by id (1-based; 0 means none)
// that grows one 64-node chunk at a time. Nothing is copied as it
// grows, so a pointer from at stays valid across later adds, and its
// memory tracks the nodes in use instead of a doubling slab's next
// power of two. Released ids wait on a free stack that add serves
// first, so steady churn allocates nothing.
type chunked[T any] struct {
	chunks []*[1 << chunkShift]T
	n      int32 // ids handed out from the chunks so far
	free   []int32
}

func (c *chunked[T]) at(id int32) *T {
	id--
	return &c.chunks[id>>chunkShift][id&(1<<chunkShift-1)]
}

// add returns the id of a zeroed node, a released one if there is one.
func (c *chunked[T]) add() int32 {
	var id int32
	if k := len(c.free) - 1; k >= 0 {
		id, c.free = c.free[k], c.free[:k]
	} else {
		if int(c.n)>>chunkShift == len(c.chunks) {
			c.chunks = append(c.chunks, new([1 << chunkShift]T))
		}
		c.n++
		id = c.n
	}
	var zero T
	*c.at(id) = zero
	return id
}

// release hands id back for reuse.
func (c *chunked[T]) release(id int32) { c.free = append(c.free, id) }

// reset releases every node at once, keeping the chunks.
func (c *chunked[T]) reset() { c.n, c.free = 0, c.free[:0] }

// region maps a region's pages to page ids.
type region [regionPages]int32

// directory is the page-sparse core of the block tables: a directory
// indexed by region leads to a region node of 16 page ids, and each id
// to a page of type P, every node in its own chunked slab. A page goes
// back to its slab when its owner empties it, and the region node with
// it once the node holds no page, so memory follows the resident
// clusters, not the address range they span. Lookups are array
// indexings with no hashing.
type directory[P any] struct {
	dir     []int32 // region -> region id; 0 = absent
	regions chunked[region]
	pages   chunked[P]
}

// page returns the page holding block b, or nil.
func (d *directory[P]) page(b int64) *P {
	r := uint64(b) >> regionShift
	if r >= uint64(len(d.dir)) || d.dir[r] == 0 {
		return nil
	}
	pid := d.regions.at(d.dir[r])[b>>pageShift&(regionPages-1)]
	if pid == 0 {
		return nil
	}
	return d.pages.at(pid)
}

// pageFor returns the page holding block b, creating it and its region
// node as needed.
func (d *directory[P]) pageFor(b int64) *P {
	r := int(uint64(b) >> regionShift)
	if r >= len(d.dir) {
		d.dir = append(d.dir, make([]int32, r+1-len(d.dir))...)
	}
	if d.dir[r] == 0 {
		d.dir[r] = d.regions.add()
	}
	reg := d.regions.at(d.dir[r])
	k := b >> pageShift & (regionPages - 1)
	if reg[k] == 0 {
		reg[k] = d.pages.add()
	}
	return d.pages.at(reg[k])
}

// drop frees the page holding block b, then its region node if that
// leaves the node empty. The owner calls it once the page is empty.
func (d *directory[P]) drop(b int64) {
	r := uint64(b) >> regionShift
	reg := d.regions.at(d.dir[r])
	k := b >> pageShift & (regionPages - 1)
	d.pages.release(reg[k])
	reg[k] = 0
	if *reg == (region{}) {
		d.regions.release(d.dir[r])
		d.dir[r] = 0
	}
}

// reset empties the directory, keeping its storage.
func (d *directory[P]) reset() {
	d.dir = d.dir[:0]
	d.regions.reset()
	d.pages.reset()
}

// bit locates block b in its page: the presence word and bit offset.
func bit(b int64) (w, off uint) {
	return uint(b>>6) & (pageWords - 1), uint(b) & 63
}

// tablePage says which of its 256 blocks hold a value and maps its
// 16-block leaves to leaf ids.
type tablePage struct {
	present [pageWords]uint64
	leaf    [pageLeaves]int32
}

// tableLeaf holds the values of 16 consecutive blocks.
type tableLeaf [leafBlocks]int32

// Table maps non-negative block addresses to int32 values. It is
// direct-addressed and page-sparse: the shared directory leads to a
// 256-block page, and the page to 16-block leaves in a slab of their
// own. A leaf goes back to its slab when the last value under it
// clears, and the page after it, so the small nodes keep an isolated
// cluster of a few blocks at about 250 bytes. Presence and runs are
// answered from the page's bit words without touching a leaf.
//
// The recency list's block -> node index (LRU) is a Table. The zero
// Table is empty and ready to use; a Table is single-goroutine.
type Table struct {
	directory[tablePage]
	leaves chunked[tableLeaf]
	n      int
}

// Clear removes every entry, keeping the storage.
func (t *Table) Clear() {
	t.reset()
	t.leaves.reset()
	t.n = 0
}

// Len reports the number of entries.
func (t *Table) Len() int { return t.n }

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
	return t.leaves.at(p.leaf[b>>leafShift&(pageLeaves-1)])[b&(leafBlocks-1)], true
}

// slot returns b's value slot and whether b had a value, first adding
// b with value 0 if it had none.
func (t *Table) slot(b int64) (*int32, bool) {
	p := t.pageFor(b)
	j := b >> leafShift & (pageLeaves - 1)
	if p.leaf[j] == 0 {
		p.leaf[j] = t.leaves.add() // chunks never move: p stays valid
	}
	w, off := bit(b)
	had := p.present[w]>>off&1 != 0
	if !had {
		p.present[w] |= 1 << off
		t.n++
	}
	return &t.leaves.at(p.leaf[j])[b&(leafBlocks-1)], had
}

// Delete removes b and reports whether it was present. A leaf left
// empty goes back to its slab, and then an empty page and region node.
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
	t.leaves.release(p.leaf[j])
	p.leaf[j] = 0
	if p.present == [pageWords]uint64{} {
		t.drop(b)
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
