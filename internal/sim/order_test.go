package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// oracle is the reference pending set: container/heap over (time, seq)
// pairs with its own comparator, sharing no code with the simulator's
// heap.
type oracle []entry

func (o oracle) Len() int { return len(o) }
func (o oracle) Less(i, j int) bool {
	if o[i].at == o[j].at {
		return o[i].seq < o[j].seq
	}
	return o[i].at < o[j].at
}
func (o oracle) Swap(i, j int) { o[i], o[j] = o[j], o[i] }
func (o *oracle) Push(x any)   { *o = append(*o, x.(entry)) }
func (o *oracle) Pop() any {
	old := *o
	e := old[len(old)-1]
	*o = old[:len(old)-1]
	return e
}

// twin drives the simulator's queue and the oracle with an identical
// operation stream and demands bit-identical pop streams. Push times
// are clamped to the last popped time, mirroring the Simulator's
// at >= now invariant (so the stream models schedule-from-inside-event
// patterns exactly).
type twin struct {
	t   testing.TB
	sim Simulator
	ref oracle
	seq uint64
	now Time
}

func newTwin(t testing.TB) *twin { return &twin{t: t} }

func (w *twin) len() int { return w.sim.Pending() }

func (w *twin) push(at Time) {
	if at < w.now {
		at = w.now
	}
	w.seq++
	e := entry{at: at, seq: w.seq}
	w.sim.push(e)
	heap.Push(&w.ref, e)
	if w.sim.Pending() != w.ref.Len() {
		w.t.Fatalf("len diverged after push: sim %d, ref %d", w.sim.Pending(), w.ref.Len())
	}
}

func (w *twin) pop() {
	c := w.sim.pop()
	r := heap.Pop(&w.ref).(entry)
	if math.Float64bits(c.at) != math.Float64bits(r.at) || c.seq != r.seq {
		w.t.Fatalf("pop diverged at op %d: sim (%v, %d), ref (%v, %d)",
			w.seq, c.at, c.seq, r.at, r.seq)
	}
	w.now = c.at
}

// peek compares the queue heads, as RunUntil reads them to test its
// deadline.
func (w *twin) peek() {
	c, r := w.sim.q[0].at, w.ref[0].at
	if math.Float64bits(c) != math.Float64bits(r) {
		w.t.Fatalf("peek diverged: sim %v, ref %v", c, r)
	}
}

func (w *twin) drain() {
	for w.len() > 0 {
		w.pop()
	}
}

// step interprets a 3-byte opcode: the op selector plus a 16-bit
// argument. Shared by the property test (random bytes) and the fuzz
// target (coverage-guided bytes).
func (w *twin) step(op byte, arg uint16) {
	switch op % 8 {
	case 0, 1: // dense push; arg==0 is an exact tie with now
		w.push(w.now + Time(arg)*1e-7)
	case 2: // sub-microsecond gaps: long runs of near-ties
		w.push(w.now + Time(arg)*1e-10)
	case 3: // far push, seconds to hours ahead
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

// The load-bearing order test: long random schedules across every
// regime — heavy same-timestamp ties, dense clusters, sparse far tails,
// drain-to-empty restarts, peeks between pushes — must pop in exactly
// the order the oracle defines.
func TestEventOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := newTwin(t)
	for i := 0; i < 200000; i++ {
		w.step(byte(rng.Intn(256)), uint16(rng.Intn(1<<16)))
	}
	w.drain()

	// A second life on the drained heap, whose storage is now warm.
	for i := 0; i < 50000; i++ {
		w.step(byte(rng.Intn(256)), uint16(rng.Intn(1<<16)))
	}
	w.drain()
}

// A massive tie load, then pushes while draining, so the heap grows
// and shrinks mid-flight.
func TestEventOrderGrowDuringDrain(t *testing.T) {
	w := newTwin(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1024; i++ {
		w.push(Time(rng.Intn(64)) * 1e-4)
	}
	for i := 0; i < 512; i++ {
		w.pop()
		w.push(w.now + Time(rng.Intn(1024))*1e-5)
		w.push(w.now + Time(rng.Intn(1024))*1e-5)
	}
	w.drain()
}

// A sparse schedule — events milliseconds apart with a far tail — and
// RunUntil's pattern: a peek at a head later than the clock, then a
// push earlier than that head.
func TestEventOrderSparseSchedule(t *testing.T) {
	const gap = 5e-5
	w := newTwin(t)
	sparse := func(pops int) {
		base := w.now
		for k := 0; k < 12; k++ {
			w.push(base + Time(k*37)*gap + 1e-6)
		}
		for i := 0; i < 6; i++ {
			w.pop()
		}
		w.peek()
		w.push(w.now + 3*gap) // ahead of the clock, behind the peeked head
		for k := 1; k <= 8; k++ {
			w.push(w.now + Time(k*53)*gap)
		}
		for i := 0; i < pops && w.len() > 0; i++ {
			w.pop()
		}
	}

	sparse(9)
	if w.len() == 0 {
		t.Fatal("the first round should leave events pending")
	}
	sparse(9)
	w.drain()
	sparse(1 << 10)
}

// FuzzEventOrder lets the fuzzer hunt for an operation stream whose
// pop order diverges from the oracle's. Wired into `make fuzz`.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 0, 5, 0, 0, 5, 0, 0})
	f.Add([]byte{3, 255, 255, 0, 0, 1, 5, 0, 0, 7, 0, 0, 5, 0, 0})
	seeds := make([]byte, 999)
	rand.New(rand.NewSource(3)).Read(seeds)
	f.Add(seeds)
	// Sparse: pushes ~6.5 ms and ~3.3 ms out plus a far one, a peek and
	// a pop per round.
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
