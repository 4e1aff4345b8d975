package sim

import (
	"math"
	"math/rand"
	"testing"
)

// twin drives the calendar queue and the reference binary heap with an
// identical operation stream and demands bit-identical pop streams —
// the contract that makes the engine swap invisible to every replay.
// Push times are clamped to the last popped time, mirroring the
// Simulator's at >= now invariant (so the stream models
// schedule-from-inside-event patterns exactly).
type twin struct {
	t   testing.TB
	cal *calQueue
	ref refHeap
	seq uint64
	now Time
}

func newTwin(t testing.TB) *twin {
	return &twin{t: t, cal: newCalQueue()}
}

func (w *twin) len() int { return w.cal.n }

func (w *twin) push(at Time) {
	if at < w.now {
		at = w.now
	}
	w.seq++
	e := entry{at: at, seq: w.seq}
	w.cal.push(e)
	w.ref.push(e)
	if w.cal.len() != w.ref.len() {
		w.t.Fatalf("len diverged after push: cal %d, ref %d", w.cal.len(), w.ref.len())
	}
}

func (w *twin) pop() {
	c := w.cal.pop()
	r := w.ref.pop()
	if math.Float64bits(c.at) != math.Float64bits(r.at) || c.seq != r.seq {
		w.t.Fatalf("pop diverged at op %d: cal (%v, %d), ref (%v, %d)",
			w.seq, c.at, c.seq, r.at, r.seq)
	}
	w.now = c.at
}

// peek compares peekAt across engines. For the calendar queue a peek
// may advance the bucket cursor, so interleaving peeks with pushes of
// earlier times exercises the v < curV fold-back path.
func (w *twin) peek() {
	c, r := w.cal.peekAt(), w.ref.peekAt()
	if math.Float64bits(c) != math.Float64bits(r) {
		w.t.Fatalf("peek diverged: cal %v, ref %v", c, r)
	}
}

func (w *twin) drain() {
	for w.len() > 0 {
		w.pop()
	}
	w.checkOccupancy()
}

// checkOccupancy demands that the calendar queue's occupancy bitmap
// marks exactly its non-empty ring slots.
func (w *twin) checkOccupancy() {
	for i, b := range w.cal.buckets {
		if set := w.cal.occ[i>>6]>>(i&63)&1 == 1; set != (len(b) > 0) {
			w.t.Fatalf("ring slot %d: occupancy bit %v with %d events", i, set, len(b))
		}
	}
}

// step interprets a 3-byte opcode: the op selector plus a 16-bit
// argument. Shared by the property test (random bytes) and the fuzz
// target (coverage-guided bytes).
func (w *twin) step(op byte, arg uint16) {
	switch op % 8 {
	case 0, 1: // dense push; arg==0 is an exact tie with now
		w.push(w.now + Time(arg)*1e-7)
	case 2: // sub-width microgap pushes — many land in one bucket
		w.push(w.now + Time(arg)*1e-10)
	case 3: // far push, beyond any plausible ring window
		w.push(w.now + 1 + Time(arg)*0.37)
	case 4: // exact tie burst
		w.push(w.now)
	case 5, 6:
		if w.len() > 0 {
			w.pop()
		}
	default:
		if w.len() > 0 {
			w.peek()
		}
	}
}

// The load-bearing equivalence test: long random schedules across every
// regime — heavy same-timestamp ties, dense clusters, sparse far tails,
// drain-to-empty re-anchors, peeks between pushes — must pop in exactly
// the order the reference heap defines.
func TestCalendarQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newTwin(t)
	for i := 0; i < 200000; i++ {
		w.step(byte(rng.Intn(256)), uint16(rng.Intn(1<<16)))
	}
	w.drain()

	// A second life on the same (now warm, retuned) structure after a
	// reset, as the pool hands it out: equivalence must survive reuse.
	w.cal.reset()
	w.ref.reset()
	w.now, w.seq = 0, 0
	for i := 0; i < 50000; i++ {
		w.step(byte(rng.Intn(256)), uint16(rng.Intn(1<<16)))
	}
	w.drain()
}

// Growth must preserve order mid-flight: push far past the grow
// threshold while draining.
func TestCalendarQueueGrowDuringDrain(t *testing.T) {
	w := newTwin(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4*calMinBuckets; i++ {
		w.push(Time(rng.Intn(64)) * 1e-4) // massive tie load per bucket
	}
	for i := 0; i < 2*calMinBuckets; i++ {
		w.pop()
		w.push(w.now + Time(rng.Intn(1024))*1e-5)
		w.push(w.now + Time(rng.Intn(1024))*1e-5)
	}
	w.drain()
}

// The cursor jumps over empty slots by the occupancy bitmap. A sparse
// schedule — events dozens of bucket widths apart, a window that wraps
// past slot 255 and spills into the far rung, a peek that moves the
// cursor ahead of the clock (RunUntil's pattern) followed by an earlier
// push, and a reset of a partly drained queue as the pool hands it out
// again — must still pop in the reference heap's order.
func TestCalendarQueueSparseJumps(t *testing.T) {
	w := newTwin(t)
	sparse := func(pops int) {
		base := w.now
		for k := 0; k < 12; k++ {
			w.push(base + Time(k*37)*calInitWidth + 1e-6)
		}
		for i := 0; i < 6; i++ {
			w.pop()
		}
		w.peek()
		w.push(w.now + 3*calInitWidth) // behind the peeked cursor
		w.checkOccupancy()
		for k := 1; k <= 8; k++ {
			w.push(w.now + Time(k*53)*calInitWidth)
		}
		for i := 0; i < pops && w.len() > 0; i++ {
			w.pop()
		}
		w.checkOccupancy()
	}

	sparse(9)
	if w.len() == 0 {
		t.Fatal("the first life should leave events pending")
	}
	w.cal.reset()
	w.ref.reset()
	w.now, w.seq = 0, 0
	w.checkOccupancy()
	sparse(9)
	w.drain()
	sparse(1 << 10)
}

// FuzzCalendarQueueEquivalence lets the fuzzer hunt for an operation
// stream whose calendar-queue pop order diverges from the reference
// heap. Wired into `make fuzz`.
func FuzzCalendarQueueEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 0, 5, 0, 0, 5, 0, 0})
	f.Add([]byte{3, 255, 255, 0, 0, 1, 5, 0, 0, 7, 0, 0, 5, 0, 0})
	seeds := make([]byte, 999)
	rand.New(rand.NewSource(3)).Read(seeds)
	f.Add(seeds)
	// Sparse: pushes ~131 and ~66 bucket widths out plus a far one, a
	// peek and a pop per round, so the cursor jumps and wraps the ring.
	var sparse []byte
	for i := 0; i < 24; i++ {
		sparse = append(sparse, 0, 255, 255, 1, 128, 0, 3, 0, 0, 7, 0, 0, 5, 0, 0)
	}
	f.Add(sparse)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := newTwin(t)
		for i := 0; i+2 < len(data); i += 3 {
			w.step(data[i], uint16(data[i+1])<<8|uint16(data[i+2]))
		}
		w.drain()
	})
}
