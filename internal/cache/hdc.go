package cache

import "math/bits"

// hdcPage holds the pinned and dirty bits of 256 consecutive blocks; a
// dirty bit is only ever set under a pinned one.
type hdcPage struct {
	pinned, dirty [pageWords]uint64
}

// HDCRegion is the host-managed, pinned portion of a controller cache.
// Pinned blocks are never replaced; dirty pinned blocks accumulate until
// the host issues flush_hdc.
//
// The pinned and dirty sets are page-sparse bitsets on the block
// tables' shared directory: 4096-block regions, region nodes of 16 page
// ids, and 256-block pages, with no leaves. The range questions the
// disk asks are word scans: FirstPinned counts trailing zeros,
// AllPinned trailing ones, and Flush walks the dirty words in ascending
// block order. The pinned blocks of a plan are scattered, one page and
// one region node to a few blocks, which the directory's chunked slabs
// hold without a doubling slab's slack, and a region of capacity 0
// allocates nothing.
type HDCRegion struct {
	directory[hdcPage]
	capacity  int
	n, dirtyN int
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
	w, off := bit(lba)
	h.pageFor(lba).pinned[w] |= 1 << off
	h.n++
	return true
}

// Unpin implements unpin_blk. It reports whether the block was pinned,
// and whether it was dirty (the caller must then write it back). A page
// left empty, and then a region node, goes back to its slab.
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
	if p.pinned == [pageWords]uint64{} {
		h.drop(lba)
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
