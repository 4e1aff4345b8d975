package cache

import "math/bits"

// chunkShift sizes the HDC slabs' chunks: 64 nodes of 64 bytes.
const chunkShift = 6

// chunked is a slab of nodes addressed by id (1-based) that grows one
// fixed-size chunk at a time. Nothing is copied as it grows, and its
// memory tracks the nodes in use instead of a doubling slab's next
// power of two.
type chunked[T any] struct {
	chunks []*[1 << chunkShift]T
	n      int32
}

func (c *chunked[T]) at(id int32) *T {
	id--
	return &c.chunks[id>>chunkShift][id&(1<<chunkShift-1)]
}

// add returns the id of a new zeroed node.
func (c *chunked[T]) add() int32 {
	if int(c.n)>>chunkShift == len(c.chunks) {
		c.chunks = append(c.chunks, new([1 << chunkShift]T))
	}
	c.n++
	var zero T
	*c.at(c.n) = zero
	return c.n
}

// hdcPage holds the pinned and dirty bits of 256 consecutive blocks; a
// dirty bit is only ever set under a pinned one. A free page links to
// the next through pinned[0].
type hdcPage struct {
	pinned, dirty [pageWords]uint64
}

// HDCRegion is the host-managed, pinned portion of a controller cache.
// Pinned blocks are never replaced; dirty pinned blocks accumulate until
// the host issues flush_hdc.
//
// The pinned and dirty sets are page-sparse bitsets in the block
// table's shape without its leaves: a directory over 4096-block
// regions, region nodes of 16 page ids, and 256-block pages. The range
// questions the disk asks are word scans: FirstPinned counts trailing
// zeros, AllPinned trailing ones, and Flush walks the dirty words in
// ascending block order. The pinned blocks of a plan are scattered, one
// page and one region node to a few blocks, so the slabs grow in
// chunks rather than by doubling, and a region of capacity 0 allocates
// nothing.
type HDCRegion struct {
	capacity    int
	n, dirtyN   int
	dir         []int32 // region -> region id; 0 = absent
	regions     chunked[tableRegion]
	pages       chunked[hdcPage]
	freeRegions int32
	freePages   int32
}

// NewHDCRegion returns a region able to pin capacity blocks. A zero
// capacity is legal and models a drive with HDC disabled.
func NewHDCRegion(capacity int) *HDCRegion {
	if capacity < 0 {
		panic("cache: negative HDC capacity")
	}
	return &HDCRegion{capacity: capacity}
}

// Capacity reports the maximum number of pinned blocks.
func (h *HDCRegion) Capacity() int { return h.capacity }

// Len reports currently pinned blocks.
func (h *HDCRegion) Len() int { return h.n }

// DirtyCount reports how many pinned blocks are currently dirty.
func (h *HDCRegion) DirtyCount() int { return h.dirtyN }

// page returns the page holding lba, or nil.
func (h *HDCRegion) page(lba int64) *hdcPage {
	r := uint64(lba) >> regionShift
	if r >= uint64(len(h.dir)) || h.dir[r] == 0 {
		return nil
	}
	pid := h.regions.at(h.dir[r])[lba>>pageShift&(regionPages-1)]
	if pid == 0 {
		return nil
	}
	return h.pages.at(pid)
}

// Contains reports whether the block is pinned.
func (h *HDCRegion) Contains(lba int64) bool {
	p := h.page(lba)
	if p == nil {
		return false
	}
	w, off := bit(lba)
	return p.pinned[w]>>off&1 != 0
}

// FirstPinned reports the offset of the first pinned block in
// [lba, lba+n), or n if none of them is pinned.
func (h *HDCRegion) FirstPinned(lba int64, n int) int {
	if h.n == 0 {
		return n
	}
	for k := 0; k < n; {
		b := lba + int64(k)
		p := h.page(b)
		if p == nil {
			k += pageBlocks - int(b&(pageBlocks-1))
			continue
		}
		w, off := bit(b)
		if m := p.pinned[w] >> off; m != 0 {
			return min(k+bits.TrailingZeros64(m), n)
		}
		k += 64 - int(off)
	}
	return n
}

// AllPinned reports whether every block of [lba, lba+n) is pinned.
func (h *HDCRegion) AllPinned(lba int64, n int) bool {
	if n > h.n {
		return false // more blocks than are pinned; n > 0 here
	}
	for k := 0; k < n; {
		b := lba + int64(k)
		p := h.page(b)
		if p == nil {
			return false
		}
		w, off := bit(b)
		// Ones shifted in above the word's end stop the count there.
		got := bits.TrailingZeros64(^(p.pinned[w] >> off))
		if k += got; got < 64-int(off) {
			return k >= n
		}
	}
	return true
}

// Pin implements pin_blk: it marks the block non-replaceable. It reports
// false when the region is full or the block is already pinned.
func (h *HDCRegion) Pin(lba int64) bool {
	if h.n >= h.capacity || h.Contains(lba) {
		return false
	}
	r := int(uint64(lba) >> regionShift)
	if r >= len(h.dir) {
		h.dir = append(h.dir, make([]int32, r+1-len(h.dir))...)
	}
	if h.dir[r] == 0 {
		h.dir[r] = h.newRegion()
	}
	reg := h.regions.at(h.dir[r])
	k := lba >> pageShift & (regionPages - 1)
	if reg[k] == 0 {
		reg[k] = h.newPage()
	}
	w, off := bit(lba)
	h.pages.at(reg[k]).pinned[w] |= 1 << off
	h.n++
	return true
}

// Unpin implements unpin_blk. It reports whether the block was pinned,
// and whether it was dirty (the caller must then write it back). A page
// left empty, and then a region node, goes back to its free list.
func (h *HDCRegion) Unpin(lba int64) (was, dirty bool) {
	p := h.page(lba)
	w, off := bit(lba)
	if p == nil || p.pinned[w]>>off&1 == 0 {
		return false, false
	}
	dirty = p.dirty[w]>>off&1 != 0
	p.pinned[w] &^= 1 << off
	p.dirty[w] &^= 1 << off
	h.n--
	if dirty {
		h.dirtyN--
	}
	if p.pinned != [pageWords]uint64{} {
		return true, dirty
	}
	r := uint64(lba) >> regionShift
	reg := h.regions.at(h.dir[r])
	k := lba >> pageShift & (regionPages - 1)
	p.pinned[0], h.freePages = uint64(h.freePages), reg[k]
	reg[k] = 0
	if *reg == (tableRegion{}) {
		reg[0], h.freeRegions = h.freeRegions, h.dir[r]
		h.dir[r] = 0
	}
	return true, dirty
}

// MarkDirty records a write absorbed by a pinned block. It reports false
// if the block is not pinned.
func (h *HDCRegion) MarkDirty(lba int64) bool {
	p := h.page(lba)
	w, off := bit(lba)
	if p == nil || p.pinned[w]>>off&1 == 0 {
		return false
	}
	if p.dirty[w]>>off&1 == 0 {
		p.dirty[w] |= 1 << off
		h.dirtyN++
	}
	return true
}

// Flush implements flush_hdc: it returns the dirty pinned blocks in
// ascending order and clears their dirty flags. The caller schedules
// the actual media writes.
func (h *HDCRegion) Flush() []int64 {
	if h.dirtyN == 0 {
		return nil
	}
	dirty := make([]int64, 0, h.dirtyN)
	for r, rid := range h.dir {
		if rid == 0 {
			continue
		}
		for k, pid := range h.regions.at(rid) {
			if pid == 0 {
				continue
			}
			p := h.pages.at(pid)
			base := int64(r)<<regionShift + int64(k)<<pageShift
			for w, m := range p.dirty {
				for ; m != 0; m &= m - 1 {
					dirty = append(dirty, base+int64(w)<<6+int64(bits.TrailingZeros64(m)))
				}
				p.dirty[w] = 0
			}
		}
	}
	h.dirtyN = 0
	return dirty
}

// newRegion takes a region node from the free list or the slab.
func (h *HDCRegion) newRegion() int32 {
	if id := h.freeRegions; id != 0 {
		reg := h.regions.at(id)
		h.freeRegions, reg[0] = reg[0], 0
		return id
	}
	return h.regions.add()
}

// newPage takes a page from the free list or the slab.
func (h *HDCRegion) newPage() int32 {
	if id := h.freePages; id != 0 {
		p := h.pages.at(id)
		h.freePages, p.pinned[0] = int32(p.pinned[0]), 0
		return id
	}
	return h.pages.add()
}
