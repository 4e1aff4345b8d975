package bufcache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"
)

// refCache is the obvious buffer cache: a map from block to an element
// of a container/list kept most recent first. It is the oracle the
// production cache is checked against.
type refCache struct {
	capacity               int
	index                  map[int64]*list.Element
	order                  *list.List // front = most recent
	hits, misses, absorbed uint64
}

type refEntry struct {
	block int64
	dirty bool
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, index: map[int64]*list.Element{}, order: list.New()}
}

func (r *refCache) Access(block int64, write bool) (bool, Eviction) {
	if e, ok := r.index[block]; ok {
		r.hits++
		if write {
			r.absorbed++
			e.Value.(*refEntry).dirty = true
		}
		r.order.MoveToFront(e)
		return false, Eviction{}
	}
	r.misses++
	var ev Eviction
	if len(r.index) >= r.capacity {
		v := r.order.Back().Value.(*refEntry)
		r.order.Remove(r.order.Back())
		delete(r.index, v.block)
		ev = Eviction{Block: v.block, Dirty: v.dirty, Happened: true}
	}
	r.index[block] = r.order.PushFront(&refEntry{block: block, dirty: write})
	return true, ev
}

// FlushDirty walks least to most recent, as the production cache does.
func (r *refCache) FlushDirty() []int64 {
	var out []int64
	for e := r.order.Back(); e != nil; e = e.Prev() {
		if v := e.Value.(*refEntry); v.dirty {
			v.dirty = false
			out = append(out, v.block)
		}
	}
	return out
}

func (r *refCache) Clear() []int64 {
	dirty := r.FlushDirty()
	r.index = map[int64]*list.Element{}
	r.order.Init()
	return dirty
}

// bufTwin drives the production cache and the reference through the
// same operations and fails on the first answer that differs.
type bufTwin struct {
	t   *testing.T
	c   *Cache
	ref *refCache
}

// bufScatter spreads a byte-sized address over far-apart pages, so
// operation streams cross 64-block leaves and 4096-block regions.
var bufScatter = [8]int64{0, 60, 4090, 4096*3 + 10, 1 << 20, 1<<22 - 3, 9_000_000, 37_748_700}

func bufAddr(a byte) int64 { return bufScatter[a&7] + int64(a>>3) }

func (w *bufTwin) step(op, a byte) {
	t := w.t
	switch op % 8 {
	case 6:
		if got, want := w.c.FlushDirty(), w.ref.FlushDirty(); !slices.Equal(got, want) {
			t.Fatalf("FlushDirty = %v, reference %v", got, want)
		}
	case 7:
		if op&0x38 != 0 {
			// Clear is rare: it would otherwise empty the cache faster
			// than it can fill.
			return
		}
		if got, want := w.c.Clear(), w.ref.Clear(); !slices.Equal(got, want) {
			t.Fatalf("Clear = %v, reference %v", got, want)
		}
	default:
		b, write := bufAddr(a), op%8 >= 4
		gm, ge := w.c.Access(b, write)
		rm, re := w.ref.Access(b, write)
		if gm != rm || ge != re {
			t.Fatalf("Access(%d, %v) = %v,%+v, reference %v,%+v", b, write, gm, ge, rm, re)
		}
	}
	if w.c.Hits() != w.ref.hits || w.c.Misses() != w.ref.misses || w.c.AbsorbedWrites() != w.ref.absorbed {
		t.Fatalf("counters %d/%d/%d, reference %d/%d/%d", w.c.Hits(), w.c.Misses(), w.c.AbsorbedWrites(),
			w.ref.hits, w.ref.misses, w.ref.absorbed)
	}
	if got, want := w.c.Len(), len(w.ref.index); got != want {
		t.Fatalf("Len = %d, reference %d", got, want)
	}
}

// runBufTwin replays a byte stream: one capacity byte (1-64 blocks),
// then one operation per two bytes.
func runBufTwin(t *testing.T, data []byte) {
	if len(data) < 1 {
		return
	}
	capacity := 1 + int(data[0]%64)
	w := &bufTwin{t: t, c: New(capacity), ref: newRefCache(capacity)}
	for i := 1; i+1 < len(data); i += 2 {
		w.step(data[i], data[i+1])
	}
	if got, want := w.c.FlushDirty(), w.ref.FlushDirty(); !slices.Equal(got, want) {
		t.Fatalf("final FlushDirty = %v, reference %v", got, want)
	}
}

// TestBufcacheEquivalence drives seeded random Access/Clear/FlushDirty
// streams through the cache and its map-plus-list reference.
func TestBufcacheEquivalence(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		data := make([]byte, 1+2*600)
		rand.New(rand.NewSource(seed)).Read(data)
		runBufTwin(t, data)
	}
}

// FuzzBufcacheEquivalence lets the fuzzer hunt for an operation stream
// on which the buffer cache answers differently from its reference.
// Wired into `make fuzz`.
func FuzzBufcacheEquivalence(f *testing.F) {
	// One block: every miss evicts, dirty then clean.
	f.Add([]byte{0, 4, 1, 0, 2, 0, 1, 6, 0})
	seeds := make([]byte, 1201)
	rand.New(rand.NewSource(3)).Read(seeds)
	f.Add(seeds)
	f.Fuzz(runBufTwin)
}
