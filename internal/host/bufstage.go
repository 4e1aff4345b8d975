package host

import (
	"diskthru/internal/bufcache"
	"diskthru/internal/sim"
)

// throughCache runs one record's window through the buffer cache and
// returns its read misses, in window order, for the request pipeline.
// Evictions are issued as they happen, before any of the record's
// misses. A record left with no misses is absorbed: it sends nothing to
// the array.
func (h *Host) throughCache(window []int64, write bool) []int64 {
	misses := h.missBuf[:0]
	for _, b := range window {
		miss, ev := h.buf.Access(b, write)
		if ev.Happened {
			h.evict(ev)
		}
		// A read miss whose block sits pinned in a victim region is
		// still issued to the disk — it completes as an HDC hit there.
		// The now-redundant pin ages out of the FIFO naturally.
		if miss && !write {
			misses = append(misses, b)
		}
	}
	h.missBuf = misses
	if len(misses) == 0 {
		h.Absorbed++
	}
	return misses
}

// evict handles one buffer-cache eviction: dirty blocks write back to
// the array in the background; clean ones feed the victim regions.
func (h *Host) evict(ev bufcache.Eviction) {
	d, pba := h.striper.Locate(ev.Block)
	if ev.Dirty {
		h.dispatch(d, pba, 1, true, nil)
		return
	}
	if h.cfg.Victim {
		h.victimInsert(d, pba)
	}
}

// victimInsert ships a clean evicted block to its controller and pins
// it, aging out the oldest victim when the region is full. The data
// crosses the bus (host memory -> controller), like pin_blk on a block
// the host already holds.
func (h *Host) victimInsert(d int, pba int64) {
	hdc := h.disks[d].HDC()
	if hdc.Capacity() == 0 {
		return
	}
	if hdc.Contains(pba) {
		return // already resident (re-eviction of a victim-served block)
	}
	for hdc.Len() >= hdc.Capacity() && len(h.victims[d]) > 0 {
		oldest := h.victims[d][0]
		h.victims[d] = h.victims[d][1:]
		if was, dirty := hdc.Unpin(oldest); was && dirty {
			// A writeback dirtied this victim while pinned; commit it.
			h.dispatch(d, oldest, 1, true, nil)
		}
	}
	if hdc.Pin(pba) {
		h.victims[d] = append(h.victims[d], pba)
		h.VictimInserts++
		h.bus.Transfer(h.disks[d].BlockSize(), nil)
	}
}

// flushDirty writes the buffer cache's remaining dirty blocks back, one
// block each in FlushDirty order, at the end of the replay.
func (h *Host) flushDirty(done sim.Event) {
	for _, b := range h.buf.FlushDirty() {
		d, pba := h.striper.Locate(b)
		h.dispatch(d, pba, 1, true, done)
	}
}

// BufferCache returns the buffer-cache stage's cache, or nil when the
// stage is off.
func (h *Host) BufferCache() *bufcache.Cache { return h.buf }
