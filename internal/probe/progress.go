package probe

import (
	"math"
	"sync/atomic"
)

// Progress aggregates coarse live-progress counters across the
// simulation cells of one experiment run: how many cells have
// completed out of how many planned, how many engine events have
// fired, and how much virtual time has been simulated, summed over
// every cell that reported.
//
// It is the bridge between the simulator's hot path and the serving
// layer: each cell's engine reports deltas every few thousand events
// (sim.SetProgress), the experiment runner reports cell completions,
// and the daemon snapshots the whole thing on every status poll. All
// methods are atomic, safe for any number of concurrent cells and
// readers, and nil-receiver-safe so call sites need no guards. Like
// the rest of this package it is a pure observer: attaching a Progress
// never changes any simulation result.
type Progress struct {
	cellsTotal atomic.Int64
	cellsDone  atomic.Int64
	events     atomic.Uint64
	simBits    atomic.Uint64 // float64 bits of cumulative sim-seconds
}

// NewProgress returns an empty tracker.
func NewProgress() *Progress { return &Progress{} }

// AddCells grows the planned-cell count. Runners call it once per
// wait, so several runners reporting into one tracker accumulate
// rather than overwrite.
func (p *Progress) AddCells(n int) {
	if p == nil || n <= 0 {
		return
	}
	p.cellsTotal.Add(int64(n))
}

// CellDone records one completed cell.
func (p *Progress) CellDone() {
	if p == nil {
		return
	}
	p.cellsDone.Add(1)
}

// Advance accumulates one engine's progress delta: events fired and
// virtual seconds simulated since its last report. It is called from
// the replay loop every few thousand events, so it must stay cheap and
// allocation-free — two atomic adds.
func (p *Progress) Advance(events uint64, simSeconds float64) {
	if p == nil {
		return
	}
	if events > 0 {
		p.events.Add(events)
	}
	if simSeconds > 0 {
		for {
			old := p.simBits.Load()
			nw := math.Float64bits(math.Float64frombits(old) + simSeconds)
			if p.simBits.CompareAndSwap(old, nw) {
				return
			}
		}
	}
}

// ProgressSnapshot is one consistent-enough read of the counters.
// (Fields are loaded independently; each is individually monotonic,
// which is all the serving layer's monotonic-progress guarantee
// needs.)
type ProgressSnapshot struct {
	CellsDone  int64
	CellsTotal int64
	Events     uint64
	SimSeconds float64
}

// Snapshot reads the current counters. Safe on a nil receiver, which
// reports all zeros.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		CellsDone:  p.cellsDone.Load(),
		CellsTotal: p.cellsTotal.Load(),
		Events:     p.events.Load(),
		SimSeconds: math.Float64frombits(p.simBits.Load()),
	}
}

// Fraction reports completed work as a fraction in [0, 1]: cells done
// over cells planned, 0 before the plan is known.
func (s ProgressSnapshot) Fraction() float64 {
	if s.CellsTotal <= 0 {
		return 0
	}
	f := float64(s.CellsDone) / float64(s.CellsTotal)
	if f > 1 {
		f = 1
	}
	return f
}
