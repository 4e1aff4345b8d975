// Package sim provides the discrete-event simulation engine that every
// other subsystem runs on.
//
// The engine is deliberately small: a monotonic virtual clock measured
// in seconds (float64) and a binary min-heap of pending events. Events
// scheduled for the same instant fire in FIFO order of scheduling,
// which makes whole simulations deterministic for a fixed input — a
// property the test suite depends on. The order tests hold the heap to
// an oracle built on container/heap (order_test.go).
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the
// simulation. float64 gives sub-nanosecond resolution over the hours-long
// horizons these experiments use.
type Time = float64

// Event is a callback scheduled to run at a specific virtual time.
type Event func(now Time)

type entry struct {
	at  Time
	seq uint64
	fn  Event
}

// less is the queue's total order: time, then scheduling sequence, so
// same-instant events fire FIFO and the pop order is fully determined.
func (e entry) less(o entry) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Simulator owns the virtual clock and the pending-event queue.
// The zero value is ready to use.
type Simulator struct {
	now     Time
	nextID  uint64
	q       []entry // binary min-heap under entry.less
	ran     uint64
	maxPend int

	// cancel, when non-nil, is polled between event batches by Run and
	// RunUntil; a closed channel stops the drain early with events
	// still queued.
	cancel    <-chan struct{}
	cancelled bool
	// progress, when non-nil, is invoked between the same event batches
	// (and once when a drain ends) with the cumulative processed-event
	// count and the clock — the hook the live-progress layer rides.
	progress func(processed uint64, now Time)
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator { return &Simulator{} }

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.ran }

// Pending reports how many events are waiting in the queue.
func (s *Simulator) Pending() int { return len(s.q) }

// MaxPending reports the high-water mark of the event queue — a gauge
// for the telemetry layer and for sizing intuition in tests.
func (s *Simulator) MaxPending() int { return s.maxPend }

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past, or at a NaN or infinite time, panics: it always indicates a
// modeling bug, never a recoverable condition, and the heap needs
// times that are totally ordered.
func (s *Simulator) At(at Time, fn Event) {
	if !(at >= s.now && at <= math.MaxFloat64) {
		panic(fmt.Sprintf("sim: event scheduled at %v: need a finite time no earlier than now %v", at, s.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	s.nextID++
	s.push(entry{at: at, seq: s.nextID, fn: fn})
	if n := len(s.q); n > s.maxPend {
		s.maxPend = n
	}
}

// push adds e to the heap, moving the hole at the end up past every
// later parent and writing e once.
func (s *Simulator) push(e entry) {
	s.q = append(s.q, e)
	h := s.q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the earliest entry, moving the hole at the
// root down past every earlier child of the displaced last entry.
// Caller guarantees the heap is non-empty.
func (s *Simulator) pop() entry {
	h := s.q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{} // the slack keeps no event closure alive
	h = h[:n]
	s.q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = last
	return top
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (s *Simulator) After(d float64, fn Event) { s.At(s.now+d, fn) }

// Step fires the single earliest pending event and reports whether one
// existed.
func (s *Simulator) Step() bool {
	if len(s.q) == 0 {
		return false
	}
	e := s.pop()
	s.now = e.at
	s.ran++
	e.fn(s.now)
	return true
}

// cancelCheckEvery is how many events fire between cancellation polls.
// Large enough that the poll is invisible in profiles, small enough that
// a cancelled replay stops within microseconds of wall time.
const cancelCheckEvery = 4096

// SetCancel installs a stop channel that Run and RunUntil poll every
// cancelCheckEvery events; context.Context.Done() is the intended
// source. A nil channel (the default) removes the check entirely — the
// drain loop is then identical to the uncancellable one, so the hot
// path pays nothing. Closing the channel stops the drain early, leaving
// the remaining events queued; use Cancelled to distinguish that exit
// from a normal one.
func (s *Simulator) SetCancel(done <-chan struct{}) {
	s.cancel = done
	s.cancelled = false
}

// Cancelled reports whether the last Run or RunUntil stopped early
// because the installed cancel channel was closed.
func (s *Simulator) Cancelled() bool { return s.cancelled }

// SetProgress installs a callback that Run and RunUntil invoke every
// cancelCheckEvery events and once more when a drain ends, passing the
// cumulative processed-event count and the current clock. Like
// SetCancel, a nil callback (the default) removes the check entirely,
// so the uninstrumented drain loop is byte-for-byte the old one and
// the hot path pays nothing. The callback must not schedule events or
// otherwise touch the simulation — it is a pure observer (the
// determinism tests pin this) — and it must not allocate if the
// zero-alloc guarantees are to hold (see alloc_test.go).
func (s *Simulator) SetProgress(fn func(processed uint64, now Time)) {
	s.progress = fn
}

// notifyProgress reports the drain position to the installed observer.
func (s *Simulator) notifyProgress() {
	if s.progress != nil {
		s.progress(s.ran, s.now)
	}
}

// Run fires events until the queue drains and returns the final clock
// value (the makespan of whatever was simulated). With a cancel channel
// installed (SetCancel), a close stops the run within cancelCheckEvery
// events; Cancelled then reports true and the unfired events stay
// queued.
func (s *Simulator) Run() Time {
	if s.cancel == nil && s.progress == nil {
		for s.Step() {
		}
		return s.now
	}
	for {
		for i := 0; i < cancelCheckEvery; i++ {
			if !s.Step() {
				s.notifyProgress()
				return s.now
			}
		}
		s.notifyProgress()
		if s.cancel != nil {
			select {
			case <-s.cancel:
				s.cancelled = true
				return s.now
			default:
			}
		}
	}
}

// RunUntil fires events with timestamps <= deadline, leaving later
// events queued, and advances the clock to deadline if the queue drains
// early. It honors SetCancel exactly like Run — polling every
// cancelCheckEvery events — and a cancelled drain returns with the
// clock at the last fired event, not at the deadline.
func (s *Simulator) RunUntil(deadline Time) Time {
	if s.cancel == nil && s.progress == nil {
		for len(s.q) > 0 && s.q[0].at <= deadline {
			s.Step()
		}
	} else {
	drain:
		for {
			for i := 0; i < cancelCheckEvery; i++ {
				if len(s.q) == 0 || s.q[0].at > deadline {
					break drain
				}
				s.Step()
			}
			s.notifyProgress()
			if s.cancel != nil {
				select {
				case <-s.cancel:
					s.cancelled = true
					return s.now
				default:
				}
			}
		}
		s.notifyProgress()
	}
	if s.now < deadline {
		s.now = deadline
	}
	return s.now
}
