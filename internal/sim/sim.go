// Package sim provides the discrete-event simulation engine that every
// other subsystem runs on.
//
// The engine is deliberately small: a monotonic virtual clock measured
// in seconds (float64) and a pending-event queue, a two-level calendar
// queue (calqueue.go). Events scheduled for the same instant fire in
// FIFO order of scheduling, which makes whole simulations deterministic
// for a fixed input — a property the test suite depends on. The
// equivalence fuzz and property tests hold the calendar queue to the
// pop order of a plain binary heap kept in the tests (refheap_test.go).
package sim

import (
	"fmt"
	"sync"
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
	q       *calQueue
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

// queuePool recycles whole event queues — ring buckets, overflow heap
// and all — across simulators, so a sweep of thousands of replays
// grows the structure once instead of once per run. Safe for
// concurrent replay cells.
var queuePool = sync.Pool{
	New: func() any { return newCalQueue() },
}

// New returns an empty simulator with the clock at zero. Its event
// queue comes from a process-wide pool; call Recycle after the run
// drains to give it back.
func New() *Simulator {
	return &Simulator{q: queuePool.Get().(*calQueue)}
}

// queue returns the event queue, attaching a pooled one on first use so
// the zero-value Simulator keeps working.
func (s *Simulator) queue() *calQueue {
	if s.q == nil {
		s.q = queuePool.Get().(*calQueue)
	}
	return s.q
}

// Recycle returns the simulator's event queue to the process-wide pool
// for the next New. Legal only once the queue has drained (pending
// events would be lost); the simulator must not be used afterwards.
func (s *Simulator) Recycle() {
	if s.q == nil || s.q.len() != 0 {
		return
	}
	s.q.reset()
	queuePool.Put(s.q)
	s.q = nil
}

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.ran }

// Pending reports how many events are waiting in the queue.
func (s *Simulator) Pending() int {
	if s.q == nil {
		return 0
	}
	return s.q.len()
}

// MaxPending reports the high-water mark of the event queue — a gauge
// for the telemetry layer and for sizing intuition in tests.
func (s *Simulator) MaxPending() int { return s.maxPend }

// Scheduled reports how many events have ever been scheduled.
func (s *Simulator) Scheduled() uint64 { return s.nextID }

// At schedules fn to run at the absolute virtual time at. Scheduling in
// the past panics: it always indicates a modeling bug, never a
// recoverable condition.
func (s *Simulator) At(at Time, fn Event) {
	if at < s.now {
		panic(fmt.Sprintf("sim: event scheduled at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("sim: nil event")
	}
	s.nextID++
	q := s.queue()
	q.push(entry{at: at, seq: s.nextID, fn: fn})
	if n := q.len(); n > s.maxPend {
		s.maxPend = n
	}
}

// After schedules fn to run d seconds from now. Negative delays panic.
func (s *Simulator) After(d float64, fn Event) { s.At(s.now+d, fn) }

// Step fires the single earliest pending event and reports whether one
// existed.
func (s *Simulator) Step() bool {
	if s.q == nil || s.q.len() == 0 {
		return false
	}
	e := s.q.pop()
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
		for s.q != nil && s.q.len() > 0 && s.q.peekAt() <= deadline {
			s.Step()
		}
	} else {
	drain:
		for {
			for i := 0; i < cancelCheckEvery; i++ {
				if s.q == nil || s.q.len() == 0 || s.q.peekAt() > deadline {
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
