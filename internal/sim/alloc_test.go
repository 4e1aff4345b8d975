package sim

import "testing"

// The scheduling hot path must not allocate once the heap has grown to
// its working size: At writes into the heap's spare capacity and pop
// zeroes the vacated slot in place. This pins the property the replay
// loops rely on — a regression here multiplies across every simulated
// request. Two burst shapes: a pending burst feeding a
// self-rescheduling chain, like a disk dispatch loop under load, and
// dense work followed by a sparse tail of distant events (idle
// wakeups, retry backoffs). A few warm-up drains grow the heap first.
func TestSchedulingHotPathAllocFree(t *testing.T) {
	s := New()
	remaining := 0
	var tick Event
	tick = func(now Time) {
		if remaining > 0 {
			remaining--
			s.After(1e-3, tick)
		}
	}
	const events = 512
	chain := func() {
		remaining = events
		for i := 0; i < 32; i++ {
			s.At(s.Now()+Time(i)*1e-4, tick)
		}
		s.Run()
	}
	tail := func() {
		base := s.Now()
		for i := 0; i < 64; i++ {
			s.At(base+Time(i)*1e-4, func(Time) {})
		}
		for i := 0; i < 64; i++ {
			s.At(base+1e3+Time(i)*7.3, func(Time) {})
		}
		s.Run()
	}
	for _, shape := range []struct {
		name  string
		burst func()
	}{{"chain", chain}, {"sparse-tail", tail}} {
		for i := 0; i < 8; i++ {
			shape.burst()
		}
		if avg := testing.AllocsPerRun(20, shape.burst); avg > 0 {
			t.Errorf("%s: scheduling hot path allocates %.1f times per drain; want 0", shape.name, avg)
		}
	}
}

// An installed progress hook moves Run onto the batched drain loop
// (shared with cancellation polling); that loop and the notification
// itself must stay allocation-free, or every instrumented daemon job
// pays per-event garbage the plain path does not.
func TestProgressHookAllocFree(t *testing.T) {
	s := New()
	var calls uint64
	s.SetProgress(func(processed uint64, now Time) { calls = processed })
	remaining := 0
	var tick Event
	tick = func(now Time) {
		if remaining > 0 {
			remaining--
			s.After(1e-3, tick)
		}
	}
	burst := func() {
		remaining = 512
		for i := 0; i < 32; i++ {
			s.At(s.Now()+Time(i)*1e-4, tick)
		}
		s.Run()
	}
	for i := 0; i < 8; i++ {
		burst() // grow the heap to its working size
	}
	if avg := testing.AllocsPerRun(20, burst); avg > 0 {
		t.Errorf("progress-instrumented drain allocates %.1f times per drain; want 0", avg)
	}
	if calls == 0 {
		t.Fatalf("progress hook never invoked")
	}
}

// RunUntil's bounded drain peeks at the queue head between steps; the
// peek must not allocate.
func TestRunUntilAllocFree(t *testing.T) {
	s := New()
	slice := func() {
		base := s.Now()
		for i := 0; i < 128; i++ {
			s.At(base+Time(i)*1e-3, func(Time) {})
		}
		for i := 0; i < 8; i++ {
			s.RunUntil(base + Time(i+1)*16e-3)
		}
		s.Run() // drain the remainder
	}
	for i := 0; i < 8; i++ {
		slice()
	}
	if avg := testing.AllocsPerRun(20, slice); avg > 0 {
		t.Errorf("RunUntil path allocates %.1f times per slice; want 0", avg)
	}
}
