package sim

import "math/bits"

// calQueue is the simulator's default event queue: a two-level
// calendar queue tuned for the access pattern of a disk replay, where
// most scheduling activity clusters within a few bucket widths of the
// clock and a thin tail (idle-disk wakeups, retry backoffs, sampler
// ticks) lands far in the future.
//
// Level one is a power-of-two ring of buckets, each covering one
// `width` of virtual time. An event at time t maps to virtual bucket
// v = floor(t * invW); the ring slot is v modulo the ring size. Only
// the window [curV, curV+nb) lives in the ring; anything later goes to
// the second level, `far`, a plain binary min-heap. As the current
// bucket index advances, far events whose virtual bucket enters the
// window migrate into their ring slots.
//
// Ordering within a bucket uses the same binary heap as the original
// engine, built lazily: pushes into non-current buckets are plain
// appends, and the bucket is heapified only when it becomes current
// (Floyd's O(b) build). In the degenerate case — every event in one
// bucket, e.g. all-identical timestamps — the structure therefore
// collapses to exactly the old binary heap rather than something
// worse.
//
// Determinism: the (time, seq) comparator is a total order, so "pops
// come out sorted by it" fully determines the pop sequence; there is
// no tie left for layout to break. Sorted order holds because v(t) is
// monotone in t (multiplication by the positive constant invW, then
// truncation), buckets drain in v order, far events re-enter the ring
// before their bucket becomes current, and the in-bucket heaps order
// the rest. The equivalence fuzz test (calqueue_test.go) checks the
// pop stream against refHeap on adversarial schedules.
//
// An occupancy bitmap, one bit per ring slot, lets the cursor jump
// straight to the next non-empty bucket. Closed-loop replays keep fewer
// than 2×256 events pending, so their ring never grows and the width
// stays at its initial 50µs; most steps would otherwise land on an
// empty slot. The jump needs one migrate at its end, not one per
// skipped slot: every far event has v >= curV+nb, so none can fall
// due before the slot the jump reaches (it is fewer than nb slots
// ahead), and the far events it admits land in the skipped, empty
// slots.
//
// The width is retuned from an EWMA of observed inter-pop gaps, but
// only when the ring grows — a moment when every ring bucket has been
// spilled to far, since v(t) changes with the width and no placed
// entry may outlive it. See retune for why growth points are the only
// ones.
type calQueue struct {
	buckets [][]entry // ring; len is a power of two
	occ     []uint64  // bit i set iff buckets[i] is non-empty
	mask    int64     // len(buckets) - 1
	curV    int64     // virtual index of the current bucket
	width   Time      // virtual-time span of one bucket
	invW    float64   // 1 / width
	sorted  bool      // buckets[curV&mask] is heap-ordered
	far     []entry   // min-heap of events at or beyond the window
	n       int       // total queued, both levels

	// Inter-pop gap statistics feeding retune.
	lastPop Time
	avgGap  float64
	primed  bool
}

const (
	calMinBuckets = 256     // initial ring size
	calMaxBuckets = 1 << 16 // ring growth cap; far absorbs the rest
	calInitWidth  = 5e-5    // 50µs — the order of one short media op
	calMinWidth   = 1e-9
	calMaxWidth   = 1e3
)

func newCalQueue() *calQueue {
	q := &calQueue{
		buckets: make([][]entry, calMinBuckets),
		occ:     make([]uint64, calMinBuckets/64),
		mask:    calMinBuckets - 1,
	}
	presizeBuckets(q.buckets)
	q.setWidth(calInitWidth)
	return q
}

// presizeBuckets gives every empty slot a small starting capacity.
// The cursor sweeps ring slots with a workload-dependent stride, so
// without this, first-touch appends trickle in for thousands of pops
// after a queue (or a grown ring) goes into service — exactly the
// steady-state allocations the guards in alloc_test.go forbid.
func presizeBuckets(bs [][]entry) {
	for i, b := range bs {
		if b == nil {
			bs[i] = make([]entry, 0, 4)
		}
	}
}

func (q *calQueue) setWidth(w Time) {
	q.width = w
	q.invW = 1 / w
}

func (q *calQueue) len() int { return q.n }

// vbucket maps a time to its virtual bucket. Monotone in t: invW is a
// positive constant and int64 truncation preserves order. Simulation
// times are non-negative and bounded by hours, so the product stays
// far inside int64 range even at calMinWidth.
func (q *calQueue) vbucket(t Time) int64 { return int64(t * q.invW) }

// reset empties the queue, keeping all storage for reuse via the pool.
func (q *calQueue) reset() {
	for i := range q.buckets {
		b := q.buckets[i]
		for j := range b {
			b[j] = entry{}
		}
		q.buckets[i] = b[:0]
	}
	clear(q.occ)
	for i := range q.far {
		q.far[i] = entry{}
	}
	q.far = q.far[:0]
	q.n = 0
	q.curV = 0
	q.sorted = false
	q.primed = false
}

func (q *calQueue) push(e entry) {
	if q.n == 0 {
		// Empty queue: re-anchor the window at this event.
		q.curV = q.vbucket(e.at)
		q.sorted = false
	} else if q.n >= 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.grow()
	}
	q.n++
	v := q.vbucket(e.at)
	if v < q.curV {
		// Legal after RunUntil advanced the clock into a bucket the
		// cursor has already passed peeking at a later event: every
		// bucket before curV has drained, so folding the event into the
		// current bucket preserves sorted-order (its heap resolves it).
		v = q.curV
	}
	if v >= q.curV+int64(len(q.buckets)) {
		entryHeapPush(&q.far, e)
		return
	}
	idx := v & q.mask
	q.occ[idx>>6] |= 1 << (idx & 63)
	if v == q.curV && q.sorted {
		entryHeapPush(&q.buckets[idx], e)
		return
	}
	q.buckets[idx] = append(q.buckets[idx], e)
}

// pop removes and returns the earliest entry. Caller guarantees n > 0.
func (q *calQueue) pop() entry {
	for {
		idx := q.curV & q.mask
		if b := q.buckets[idx]; len(b) > 0 {
			if !q.sorted {
				heapifyEntries(b)
				q.sorted = true
			}
			e := entryHeapPop(&q.buckets[idx])
			if len(q.buckets[idx]) == 0 {
				q.occ[idx>>6] &^= 1 << (idx & 63)
			}
			q.n--
			if q.primed {
				if gap := e.at - q.lastPop; gap > 0 {
					q.avgGap += (gap - q.avgGap) * 0.125
				}
			} else {
				q.primed = true
			}
			q.lastPop = e.at
			return e
		}
		q.advance()
	}
}

// peekAt reports the earliest pending time without removing it. Caller
// guarantees n > 0. Advancing the cursor here is safe: it only moves
// past empty buckets (or jumps when the whole ring is empty), and
// push's v < curV clamp keeps later, earlier-in-time pushes correct.
func (q *calQueue) peekAt() Time {
	for {
		idx := q.curV & q.mask
		if b := q.buckets[idx]; len(b) > 0 {
			if !q.sorted {
				heapifyEntries(b)
				q.sorted = true
			}
			return b[0].at
		}
		q.advance()
	}
}

// advance moves the cursor to the next non-empty source of events.
// Caller guarantees n > 0 and the current bucket is empty.
func (q *calQueue) advance() {
	if q.n == len(q.far) {
		// Every ring bucket is empty: jump straight to the earliest far
		// event instead of stepping one empty bucket at a time.
		q.anchorToFar()
		return
	}
	q.curV += q.nextOccupied()
	q.sorted = false
	q.migrate()
}

// nextOccupied reports how many slots ahead of the cursor the next
// non-empty ring bucket lies, scanning the occupancy bitmap circularly.
// Caller guarantees some ring bucket is non-empty and the current one
// is empty, so the answer is in [1, nb).
func (q *calQueue) nextOccupied() int64 {
	cur := q.curV & q.mask
	i := (cur + 1) & q.mask
	w := int(i >> 6)
	word := q.occ[w] &^ (1<<(i&63) - 1) // slots before i come last
	for range len(q.occ) + 1 {
		if word != 0 {
			slot := int64(w<<6 + bits.TrailingZeros64(word))
			return (slot - cur) & q.mask
		}
		if w++; w == len(q.occ) {
			w = 0
		}
		word = q.occ[w]
	}
	panic("sim: calendar ring holds events but no occupied slot")
}

// anchorToFar re-bases the window at the earliest far event and pulls
// newly in-window far events into the ring. Caller guarantees far is
// non-empty and the ring is empty.
func (q *calQueue) anchorToFar() {
	q.curV = q.vbucket(q.far[0].at)
	q.sorted = false
	q.migrate()
}

// migrate restores the invariant that far holds only events at or
// beyond the ring window, pulling the rest into their slots. After an
// advance only the slots the cursor just passed can fill; after an
// anchor the drained events scatter across the ring.
func (q *calQueue) migrate() {
	limit := q.curV + int64(len(q.buckets))
	for len(q.far) > 0 && q.vbucket(q.far[0].at) < limit {
		e := entryHeapPop(&q.far)
		v := q.vbucket(e.at)
		if v < q.curV {
			v = q.curV
		}
		idx := v & q.mask
		q.occ[idx>>6] |= 1 << (idx & 63)
		q.buckets[idx] = append(q.buckets[idx], e)
	}
}

// grow doubles the ring by spilling every ring event into far,
// widening, and re-anchoring — O(n log n), amortized over the pushes
// that got the queue here, and never again for a pooled queue that has
// reached its working size.
func (q *calQueue) grow() {
	for i := range q.buckets {
		b := q.buckets[i]
		for j := range b {
			entryHeapPush(&q.far, b[j])
			b[j] = entry{}
		}
		q.buckets[i] = b[:0]
	}
	nb := 2 * len(q.buckets)
	q.buckets = append(q.buckets, make([][]entry, nb-len(q.buckets))...)
	presizeBuckets(q.buckets)
	q.occ = make([]uint64, nb/64)
	q.mask = int64(nb - 1)
	q.retune()
	q.anchorToFar()
}

// retune re-derives the bucket width from the gap EWMA, targeting a
// couple of events per bucket. Called only from grow, when the ring is
// empty (see the type comment) — so the width freezes once a pooled
// queue reaches its working size, and with it the bucket layout: a
// width that kept adapting to the gap mix would redistribute load
// across slots on every phase change and re-grow their capacities
// forever, which is exactly what the allocation guards forbid. The 2x
// hysteresis band keeps it from flapping on noise before then.
func (q *calQueue) retune() {
	if !(q.avgGap > 0) {
		return
	}
	w := q.avgGap * 2
	if w < calMinWidth {
		w = calMinWidth
	} else if w > calMaxWidth {
		w = calMaxWidth
	}
	if w > q.width*0.5 && w < q.width*2 {
		return
	}
	q.setWidth(w)
}

// Shared binary-heap primitives over entry slices, used by the far
// rung and by in-bucket ordering. Identical comparator to refHeap.

func heapifyEntries(h []entry) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownEntries(h, i)
	}
}

func siftDownEntries(h []entry, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].less(h[smallest]) {
			smallest = l
		}
		if r < len(h) && h[r].less(h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

func entryHeapPush(hp *[]entry, e entry) {
	h := append(*hp, e)
	*hp = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func entryHeapPop(hp *[]entry) entry {
	h := *hp
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	// Zero the vacated slot so drained (and possibly pooled) storage
	// retains no event closures.
	h[last] = entry{}
	h = h[:last]
	siftDownEntries(h, 0)
	*hp = h
	return top
}
