package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 || s.Processed() != 0 {
		t.Fatalf("fresh simulator has pending=%d processed=%d", s.Pending(), s.Processed())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	times := []float64{5, 1, 3, 2, 4, 0.5}
	for _, at := range times {
		at := at
		s.At(at, func(now Time) { got = append(got, now) })
	}
	end := s.Run()
	if end != 5 {
		t.Fatalf("Run() = %v, want 5", end)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("fired %d events, want %d", len(got), len(times))
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(1.0, func(Time) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order[%d] = %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at Time
	s.At(2, func(Time) {
		s.After(3, func(now Time) { at = now })
	})
	s.Run()
	if at != 5 {
		t.Fatalf("After fired at %v, want 5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(10, func(Time) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func(Time) {})
}

// The heap needs totally ordered times: a NaN or +Inf time panics like
// a past one, before it can enter the queue.
func TestSchedulingAtNonFiniteTimePanics(t *testing.T) {
	for _, at := range []Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s := New()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v did not panic", at)
				}
			}()
			s.At(at, func(Time) {})
		}()
		if s.Pending() != 0 {
			t.Errorf("scheduling at %v left %d events queued", at, s.Pending())
		}
	}
}

func TestNilEventPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	s.At(1, nil)
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := New()
	fired := 0
	for _, at := range []float64{1, 2, 3, 10, 20} {
		s.At(at, func(Time) { fired++ })
	}
	now := s.RunUntil(5)
	if now != 5 {
		t.Fatalf("RunUntil returned %v, want 5", now)
	}
	if fired != 3 {
		t.Fatalf("fired %d events before deadline, want 3", fired)
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	s.Run()
	if fired != 5 {
		t.Fatalf("fired %d events total, want 5", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	if got := s.RunUntil(7); got != 7 {
		t.Fatalf("RunUntil on empty queue = %v, want 7", got)
	}
	if s.Now() != 7 {
		t.Fatalf("Now() = %v, want 7", s.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Property: for any set of non-negative event times, Run fires them all in
// non-decreasing time order and ends the clock at the max.
func TestPropertyHeapOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var maxAt float64
		var fired []float64
		for _, r := range raw {
			at := float64(r) / 16.0
			if at > maxAt {
				maxAt = at
			}
			s.At(at, func(now Time) { fired = append(fired, now) })
		}
		end := s.Run()
		if len(fired) != len(raw) {
			return false
		}
		if len(raw) > 0 && end != maxAt {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCascadingEventsDeterministic(t *testing.T) {
	run := func() []float64 {
		s := New()
		rng := rand.New(rand.NewSource(42))
		var trace []float64
		var spawn func(depth int) Event
		spawn = func(depth int) Event {
			return func(now Time) {
				trace = append(trace, now)
				if depth < 4 {
					for i := 0; i < 3; i++ {
						s.After(rng.Float64(), spawn(depth+1))
					}
				}
			}
		}
		s.At(0, spawn(0))
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic trace at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestResourceFIFOAndTiming(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	var done []Time
	s.At(0, func(Time) {
		r.Acquire(2, func(now Time) { done = append(done, now) })
		r.Acquire(3, func(now Time) { done = append(done, now) })
	})
	s.At(1, func(Time) {
		r.Acquire(1, func(now Time) { done = append(done, now) })
	})
	s.Run()
	want := []Time{2, 5, 6}
	if len(done) != len(want) {
		t.Fatalf("completions = %v, want %v", done, want)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if r.Served != 3 {
		t.Fatalf("Served = %d, want 3", r.Served)
	}
	if r.Busy != 6 {
		t.Fatalf("Busy = %v, want 6", r.Busy)
	}
	if got := r.Utilization(); got != 1.0 {
		t.Fatalf("Utilization = %v, want 1.0", got)
	}
}

func TestResourceIdleGapNotCounted(t *testing.T) {
	s := New()
	r := NewResource(s, "bus")
	s.At(0, func(Time) { r.Acquire(1, nil) })
	s.At(10, func(Time) { r.Acquire(1, nil) })
	s.Run()
	if s.Now() != 11 {
		t.Fatalf("end = %v, want 11", s.Now())
	}
	if r.Busy != 2 {
		t.Fatalf("Busy = %v, want 2", r.Busy)
	}
}

func TestResourceZeroDuration(t *testing.T) {
	s := New()
	r := NewResource(s, "r")
	order := []int{}
	s.At(0, func(Time) {
		r.Acquire(0, func(Time) { order = append(order, 1) })
		r.Acquire(0, func(Time) { order = append(order, 2) })
	})
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("zero-duration jobs order = %v", order)
	}
}

func TestResourceNegativeDurationPanics(t *testing.T) {
	s := New()
	r := NewResource(s, "r")
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	r.Acquire(-1, nil)
}

// Property: a resource's total busy time equals the sum of job durations,
// and the last completion is at least that sum (FIFO work conservation).
func TestPropertyResourceWorkConservation(t *testing.T) {
	f := func(durs []uint8) bool {
		s := New()
		r := NewResource(s, "r")
		var sum float64
		var last Time
		s.At(0, func(Time) {
			for _, d := range durs {
				dur := float64(d) / 8.0
				sum += dur
				r.Acquire(dur, func(now Time) { last = now })
			}
		})
		s.Run()
		const eps = 1e-9
		if r.Busy < sum-eps || r.Busy > sum+eps {
			return false
		}
		return len(durs) == 0 || (last >= sum-eps && last <= sum+eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavedAtAfterAccounting(t *testing.T) {
	s := New()
	var fired []float64
	note := func(now Time) { fired = append(fired, now) }
	// Absolute events at 1, 4; the one at 1 chains relative events at
	// 1+2=3 and (from there) 3+3=6.
	s.At(4, note)
	s.At(1, func(now Time) {
		note(now)
		s.After(2, func(now Time) {
			note(now)
			s.After(3, note)
		})
	})
	if s.Pending() != 2 || s.Processed() != 0 {
		t.Fatalf("before run: pending=%d processed=%d", s.Pending(), s.Processed())
	}

	// Deadline 3 fires the events at 1 and 3 (the chained After lands
	// exactly on the deadline) but not 4 or 6.
	if now := s.RunUntil(3); now != 3 {
		t.Fatalf("RunUntil(3) = %v", now)
	}
	// The event at 6 was scheduled while draining toward the deadline,
	// so it is pending beside the one at 4.
	if s.Processed() != 2 || s.Pending() != 2 {
		t.Fatalf("mid run: processed=%d pending=%d", s.Processed(), s.Pending())
	}

	if end := s.Run(); end != 6 {
		t.Fatalf("Run() = %v, want 6", end)
	}
	want := []float64{1, 3, 4, 6}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if s.Processed() != 4 || s.Pending() != 0 {
		t.Fatalf("after run: processed=%d pending=%d", s.Processed(), s.Pending())
	}
}

func TestRunUntilRepeatedDeadlines(t *testing.T) {
	s := New()
	ticks := 0
	var tick Event
	tick = func(Time) {
		ticks++
		if ticks < 5 {
			s.After(1, tick)
		}
	}
	s.At(1, tick)
	for d := 1.0; d <= 3; d++ {
		if now := s.RunUntil(d); now != d {
			t.Fatalf("RunUntil(%v) = %v", d, now)
		}
		if ticks != int(d) {
			t.Fatalf("at deadline %v: %d ticks", d, ticks)
		}
	}
	s.Run()
	if ticks != 5 || s.Now() != 5 {
		t.Fatalf("final: ticks=%d now=%v", ticks, s.Now())
	}
}

func TestMaxPendingHighWaterMark(t *testing.T) {
	s := New()
	if s.MaxPending() != 0 {
		t.Fatalf("fresh MaxPending = %d", s.MaxPending())
	}
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func(Time) {})
	}
	s.Run()
	// The mark records peak depth, not the (drained) current depth.
	if s.MaxPending() != 10 || s.Pending() != 0 {
		t.Fatalf("MaxPending = %d pending = %d", s.MaxPending(), s.Pending())
	}
	// Further scheduling above the old mark raises it.
	for i := 0; i < 12; i++ {
		s.After(1, func(Time) {})
	}
	if s.MaxPending() != 12 {
		t.Fatalf("MaxPending = %d, want 12", s.MaxPending())
	}
	s.Run()
}
