package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// twin drives each production organization and its block-at-a-time
// reference (ref_test.go) through the same operations and fails on the
// first answer that differs.
type twin struct {
	t      *testing.T
	seg    *SegmentStore
	refSeg *refSegmentStore
	blk    *BlockStore
	refBlk *refBlockStore
	hdc    *HDCRegion
	refHDC *refHDCRegion
	// addr maps an operation's address byte to a block, and spans
	// lists the [from, to) block ranges check compares; nil means the
	// identity over [0, domain+40).
	addr  func(byte) int64
	spans [][2]int64
}

// domain bounds the block addresses twin operations touch, so runs
// overlap often.
const domain = 256

// newTwin sizes the organizations from three configuration bytes:
// 1-5 segments of 1-16 blocks, a 1-48 block pool under either policy,
// and a 0-31 block HDC region.
func newTwin(t *testing.T, c0, c1, c2 byte) *twin {
	segs, segBlocks := 1+int(c0%5), 1+int(c0/5%16)
	capacity, policy := 1+int(c1%48), EvictLRU
	if c1&0x80 != 0 {
		policy = EvictMRU
	}
	hdcCap := int(c2 % 32)
	return &twin{
		t:      t,
		seg:    NewSegmentStore(segs, segBlocks),
		refSeg: newRefSegmentStore(segs, segBlocks),
		blk:    NewBlockStore(capacity, policy),
		refBlk: newRefBlockStore(capacity, policy),
		hdc:    NewHDCRegion(hdcCap),
		refHDC: newRefHDCRegion(hdcCap),
	}
}

// insert feeds both stores the same run.
func (w *twin) insert(lba int64, n int) {
	w.seg.Insert(lba, n)
	w.refSeg.Insert(lba, n)
	w.blk.Insert(lba, n)
	w.refBlk.Insert(lba, n)
}

// step applies one operation: op selects it, a and b are its
// arguments.
func (w *twin) step(op, a, b byte) {
	t := w.t
	lba, n := int64(a), 1+int(b%40)
	if w.addr != nil {
		lba = w.addr(a)
	}
	switch op % 9 {
	case 0:
		w.insert(lba, n)
	case 1:
		w.seg.Touch(lba)
		w.refSeg.Touch(lba)
		w.blk.Touch(lba)
		w.refBlk.Touch(lba)
	case 2:
		if got, want := w.seg.Contains(lba), w.refSeg.Contains(lba); got != want {
			t.Fatalf("segment Contains(%d) = %v, reference %v", lba, got, want)
		}
		if got, want := w.blk.Contains(lba), w.refBlk.Contains(lba); got != want {
			t.Fatalf("block Contains(%d) = %v, reference %v", lba, got, want)
		}
	case 3:
		if got, want := w.hdc.Pin(lba), w.refHDC.Pin(lba); got != want {
			t.Fatalf("Pin(%d) = %v, reference %v", lba, got, want)
		}
	case 4:
		gw, gd := w.hdc.Unpin(lba)
		rw, rd := w.refHDC.Unpin(lba)
		if gw != rw || gd != rd {
			t.Fatalf("Unpin(%d) = %v,%v, reference %v,%v", lba, gw, gd, rw, rd)
		}
	case 5:
		if got, want := w.hdc.MarkDirty(lba), w.refHDC.MarkDirty(lba); got != want {
			t.Fatalf("MarkDirty(%d) = %v, reference %v", lba, got, want)
		}
	case 6:
		if got, want := w.hdc.Flush(), w.refHDC.Flush(); !slices.Equal(got, want) {
			t.Fatalf("Flush = %v, reference %v", got, want)
		}
	case 7:
		if got, want := w.hdc.FirstPinned(lba, n), w.refHDC.FirstPinned(lba, n); got != want {
			t.Fatalf("FirstPinned(%d, %d) = %d, reference %d", lba, n, got, want)
		}
		if got, want := w.hdc.AllPinned(lba, n), w.refHDC.AllPinned(lba, n); got != want {
			t.Fatalf("AllPinned(%d, %d) = %v, reference %v", lba, n, got, want)
		}
	case 8:
		// A media read as the disk places it: each maximal unpinned run
		// separately, split with FirstPinned on one side and per-block
		// probes on the other.
		for pba, left := lba, n; left > 0; {
			k := w.hdc.FirstPinned(pba, left)
			if k > 0 {
				w.seg.Insert(pba, k)
				w.blk.Insert(pba, k)
			}
			pba += int64(k + 1)
			left -= k + 1
		}
		for i := 0; i < n; {
			if w.refHDC.Contains(lba + int64(i)) {
				i++
				continue
			}
			j := i
			for j < n && !w.refHDC.Contains(lba+int64(j)) {
				j++
			}
			w.refSeg.Insert(lba+int64(i), j-i)
			w.refBlk.Insert(lba+int64(i), j-i)
			i = j
		}
	}
	w.check()
}

// check compares the counters and the whole residency of every pair.
func (w *twin) check() {
	t := w.t
	if got, want := w.seg.Len(), w.refSeg.Len(); got != want {
		t.Fatalf("segment Len = %d, reference %d", got, want)
	}
	if got, want := w.seg.Evictions(), w.refSeg.Evictions(); got != want {
		t.Fatalf("segment Evictions = %d, reference %d", got, want)
	}
	if got, want := w.blk.Len(), w.refBlk.Len(); got != want {
		t.Fatalf("block Len = %d, reference %d", got, want)
	}
	if got, want := w.blk.Evictions(), w.refBlk.Evictions(); got != want {
		t.Fatalf("block Evictions = %d, reference %d", got, want)
	}
	if got, want := w.hdc.Len(), w.refHDC.Len(); got != want {
		t.Fatalf("HDC Len = %d, reference %d", got, want)
	}
	if got, want := w.hdc.DirtyCount(), w.refHDC.DirtyCount(); got != want {
		t.Fatalf("HDC DirtyCount = %d, reference %d", got, want)
	}
	if w.spans == nil {
		w.checkSpan(0, domain+40)
	}
	for _, s := range w.spans {
		w.checkSpan(s[0], s[1])
	}
}

// checkSpan compares the residency of every block of [from, to).
func (w *twin) checkSpan(from, to int64) {
	t := w.t
	for b := from; b < to; b++ {
		if w.seg.Contains(b) != w.refSeg.Contains(b) {
			t.Fatalf("segment residency of block %d differs from reference", b)
		}
		if w.blk.Contains(b) != w.refBlk.Contains(b) {
			t.Fatalf("block residency of block %d differs from reference", b)
		}
		if w.hdc.Contains(b) != w.refHDC.Contains(b) {
			t.Fatalf("pinned status of block %d differs from reference", b)
		}
	}
}

// runTwin replays a byte stream: three configuration bytes, then one
// operation per three bytes.
func runTwin(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	w := newTwin(t, data[0], data[1], data[2])
	for i := 3; i+2 < len(data); i += 3 {
		w.step(data[i], data[i+1], data[i+2])
	}
}

// TestCacheEquivalence drives seeded random operation streams through
// the run-granular organizations and their references.
func TestCacheEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		data := make([]byte, 3+3*300)
		rand.New(rand.NewSource(seed)).Read(data)
		runTwin(t, data)
	}
}

// FuzzCacheEquivalence lets the fuzzer hunt for an operation stream on
// which a run-granular organization answers differently from its
// block-at-a-time reference. Wired into `make fuzz`.
func FuzzCacheEquivalence(f *testing.F) {
	// Two 16-block segments: the eviction over-count sequence.
	f.Add([]byte{76, 0x90, 8, 0, 0, 9, 0, 5, 9, 1, 0, 0, 0, 100, 9, 0, 200, 9})
	// A full MRU pool under a read longer than itself, with pins.
	f.Add([]byte{0, 0x97, 16, 3, 4, 0, 3, 6, 0, 8, 0, 30, 8, 2, 39, 5, 4, 0, 6, 0, 0})
	seeds := make([]byte, 900)
	rand.New(rand.NewSource(5)).Read(seeds)
	f.Add(seeds)
	f.Fuzz(runTwin)
}
