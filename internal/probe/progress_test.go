package probe

import (
	"sync"
	"testing"
)

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	p.AddCells(4)
	p.CellDone()
	p.Advance(100, 1.5)
	if s := p.Snapshot(); s != (ProgressSnapshot{}) {
		t.Fatalf("nil progress snapshot = %+v", s)
	}
	if f := p.Snapshot().Fraction(); f != 0 {
		t.Fatalf("nil progress fraction = %v", f)
	}
}

func TestProgressAccumulates(t *testing.T) {
	p := NewProgress()
	p.AddCells(3)
	p.AddCells(2) // a second runner accumulates
	p.Advance(4096, 0.25)
	p.Advance(4096, 0.75)
	p.CellDone()
	s := p.Snapshot()
	if s.CellsTotal != 5 || s.CellsDone != 1 || s.Events != 8192 || s.SimSeconds != 1.0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if f := s.Fraction(); f != 0.2 {
		t.Fatalf("fraction = %v, want 0.2", f)
	}
}

func TestProgressFractionClamped(t *testing.T) {
	p := NewProgress()
	if f := p.Snapshot().Fraction(); f != 0 {
		t.Fatalf("fraction before plan = %v", f)
	}
	p.AddCells(1)
	p.CellDone()
	p.CellDone() // over-report must not exceed 1
	if f := p.Snapshot().Fraction(); f != 1 {
		t.Fatalf("fraction = %v, want clamped to 1", f)
	}
}

// TestProgressConcurrent exercises the tracker from many goroutines as
// a parallel experiment would; run under -race this is the data-race
// proof, and the totals must still be exact.
func TestProgressConcurrent(t *testing.T) {
	p := NewProgress()
	const workers, reports = 8, 500
	var wg sync.WaitGroup
	p.AddCells(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reports; i++ {
				p.Advance(10, 0.001)
				_ = p.Snapshot()
			}
			p.CellDone()
		}()
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Events != workers*reports*10 {
		t.Fatalf("events = %d, want %d", s.Events, workers*reports*10)
	}
	if got, want := s.SimSeconds, float64(workers*reports)*0.001; got < want*0.999 || got > want*1.001 {
		t.Fatalf("sim seconds = %v, want ~%v", got, want)
	}
	if s.CellsDone != workers || s.Fraction() != 1 {
		t.Fatalf("cells done = %d fraction = %v", s.CellsDone, s.Fraction())
	}
}
