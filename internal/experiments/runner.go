package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"diskthru"
	"diskthru/internal/probe"
)

// The experiment drivers decompose into cells: one cell is one
// independent simulation replay (a diskthru.Run, RunLive or a pure
// computation) writing into a result slot the driver owns. Cells never
// touch the Table; the driver enumerates all of them up front, the
// runner executes them on a bounded worker pool, and the driver
// assembles the rows in presentation order after wait returns. Each
// cell owns its own simulator and seeded generators, so cell results —
// and therefore the assembled tables — are byte-identical at any
// parallelism.
//
// When Options carries a cell session (RunCellExec / RunWithCellExec
// in cell.go), wait additionally knows each cell's result slot, so a
// cell can run on another machine and have its slot filled by wire
// payload instead of local execution.
type runner struct {
	par    int
	ctx    context.Context // never nil; Background when Options.Ctx is unset
	prog   *probe.Progress // nil-safe; reports cell plan + completions
	stream bool            // Options.StreamStats, threaded into every cell
	sess   *cellSession    // nil outside RunCellExec / RunWithCellExec
	cells  []cellEntry
}

// cellEntry is one cell plus the metadata remote execution needs: the
// result slot its closure writes (nil for bare computations, which are
// not remotable).
type cellEntry struct {
	fn   func() error
	slot any // *diskthru.Result, *diskthru.LiveResult, *resultPair, or nil
}

func newRunner(o Options) *runner {
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return &runner{par: o.parallelism(), ctx: ctx, prog: o.Progress,
		stream: o.StreamStats, sess: o.cells}
}

// add appends one bare-computation cell. Cells must not read other
// cells' slots and must not mutate anything shared except through a
// workloadRef.
func (r *runner) add(fn func() error) {
	r.cells = append(r.cells, cellEntry{fn: fn})
}

// addSlot appends a cell whose entire observable result lands in slot,
// making it eligible for remote execution.
func (r *runner) addSlot(fn func() error, slot any) {
	r.cells = append(r.cells, cellEntry{fn: fn, slot: slot})
}

// workloadRef builds a workload lazily, exactly once, for the cells that
// share it. Workloads are read-only during replay (bitmaps, rigs and
// RNGs are per-run), so concurrent cells can share the built value.
type workloadRef struct {
	once  sync.Once
	build func() (*diskthru.Workload, error)
	w     *diskthru.Workload
	err   error
}

// newWorkload registers one workload-construction site. Under a warm
// session (Options.WorkloadCache) the build is wrapped to consult the
// cache first, keyed by the invocation scope plus this call site's
// registration ordinal; see warm.go for why that key is deterministic.
func newWorkload(o Options, build func() (*diskthru.Workload, error)) *workloadRef {
	if ws := o.warm; ws != nil {
		key := ws.nextKey()
		inner := build
		build = func() (*diskthru.Workload, error) {
			if w, ok := ws.cache.Get(key); ok {
				return w, nil
			}
			w, err := inner()
			if err == nil {
				ws.cache.Add(key, w)
			}
			return w, err
		}
	}
	return &workloadRef{build: build}
}

func (wr *workloadRef) get() (*diskthru.Workload, error) {
	wr.once.Do(func() { wr.w, wr.err = wr.build() })
	return wr.w, wr.err
}

// replay executes one diskthru.Run inside a cell, threading in the
// runner's context, progress tracker and streaming flag.
func (r *runner) replay(wr *workloadRef, cfg diskthru.Config) (diskthru.Result, error) {
	w, err := wr.get()
	if err != nil {
		return diskthru.Result{}, err
	}
	cfg.Progress = r.prog
	cfg.StreamStats = cfg.StreamStats || r.stream
	return diskthru.RunContext(r.ctx, w, cfg)
}

// run appends a cell executing diskthru.Run and returns the slot the
// result lands in. Read the slot only after wait returns nil.
func (r *runner) run(wr *workloadRef, cfg diskthru.Config) *diskthru.Result {
	res := new(diskthru.Result)
	r.addSlot(func() error {
		v, err := r.replay(wr, cfg)
		if err != nil {
			return err
		}
		*res = v
		return nil
	}, res)
	return res
}

// runThen appends a cell executing two dependent replays: cfg, then the
// config next derives from that first result. Both results land in the
// returned slot, so the dependency never crosses a cell boundary.
func (r *runner) runThen(wr *workloadRef, cfg diskthru.Config, next func(diskthru.Result) diskthru.Config) *resultPair {
	res := new(resultPair)
	r.addSlot(func() error {
		first, err := r.replay(wr, cfg)
		if err != nil {
			return err
		}
		second, err := r.replay(wr, next(first))
		if err != nil {
			return err
		}
		*res = resultPair{First: first, Second: second}
		return nil
	}, res)
	return res
}

// compare is diskthru.Compare decomposed into one cell per system, with
// the same per-system error wrapping.
func (r *runner) compare(wr *workloadRef, base diskthru.Config, systems []diskthru.System) []*diskthru.Result {
	out := make([]*diskthru.Result, len(systems))
	for i, sys := range systems {
		sys := sys
		res := new(diskthru.Result)
		r.addSlot(func() error {
			v, err := r.replay(wr, base.WithSystem(sys))
			if err != nil {
				return fmt.Errorf("%v: %w", sys, err)
			}
			*res = v
			return nil
		}, res)
		out[i] = res
	}
	return out
}

// runLive appends a cell executing diskthru.RunLive.
func (r *runner) runLive(wr *workloadRef, cfg diskthru.Config, opts diskthru.LiveOptions) *diskthru.LiveResult {
	res := new(diskthru.LiveResult)
	r.addSlot(func() error {
		w, err := wr.get()
		if err != nil {
			return err
		}
		cfg.Progress = r.prog
		v, err := diskthru.RunLiveContext(r.ctx, w, cfg, opts)
		if err != nil {
			return err
		}
		*res = v
		return nil
	}, res)
	return res
}

// cell runs cell i, first honoring the runner's context so a cancelled
// experiment stops between cells even when the cells themselves are
// pure computations that never consult it.
func (r *runner) cell(i int) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if err := r.cells[i].fn(); err != nil {
		return err
	}
	r.prog.CellDone()
	return nil
}

// route passes cell i through the session's CellExec and returns its
// encoded slot: the payload run produced or the one inject accepted,
// nil for bare cells. Bare cells get no inject callback, so they always
// run locally.
func (r *runner) route(i int) ([]byte, error) {
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	e := r.cells[i]
	var payload []byte
	run := func() ([]byte, error) {
		if err := e.fn(); err != nil {
			return nil, err
		}
		if e.slot == nil {
			return nil, nil
		}
		p, err := encodeSlot(e.slot)
		payload = p
		return p, err
	}
	var inject func([]byte) error
	if e.slot != nil {
		inject = func(p []byte) error {
			if err := decodeSlot(p, e.slot); err != nil {
				return err
			}
			payload = p
			return nil
		}
	}
	if err := r.sess.exec(CellID{Index: i}, run, inject); err != nil {
		return nil, err
	}
	r.prog.CellDone()
	return payload, nil
}

// capture routes only the target cell and stores its payload in the
// session — the terminal step of RunCellExec on the daemon.
func (r *runner) capture(id CellID) error {
	if id.Index >= len(r.cells) {
		return fmt.Errorf("experiments: %d cells, no index %d", len(r.cells), id.Index)
	}
	if r.cells[id.Index].slot == nil {
		return fmt.Errorf("%w (cell %v)", ErrCellNotRemotable, id)
	}
	payload, err := r.route(id.Index)
	if err != nil {
		return err
	}
	r.sess.payload = payload
	return errCellCaptured
}

// wait executes the cells and blocks until all have finished or the
// pool has drained after a failure. At parallelism <= 1 the cells run
// serially in order on the calling goroutine. Otherwise min(par, cells)
// workers pull cell indices from a shared counter — effectively work
// stealing for a uniform task list — and the first error cancels the
// remaining unstarted cells. When several in-flight cells fail, the one
// with the smallest index wins, matching the serial path's choice for
// any set of already-started cells. A cancelled Options.Ctx surfaces
// here as the first error of whichever cell observed it.
//
// Under a cell session wait may run only once (see errWaitTwice). In
// capture mode (RunCellExec) it routes only the target cell and aborts
// the driver with errCellCaptured; in exec mode (RunWithCellExec) every
// cell is routed through the session's CellExec instead of running
// locally.
func (r *runner) wait() error {
	n := len(r.cells)
	// The cell plan is known only now (drivers append cells up to this
	// point), so this is where the progress tracker learns the
	// denominator; completions then stream in from cell.
	r.prog.AddCells(n)
	exec := r.cell
	if r.sess != nil {
		if r.sess.waited {
			return errWaitTwice
		}
		r.sess.waited = true
		if r.sess.target != nil {
			return r.capture(*r.sess.target)
		}
		exec = func(i int) error {
			_, err := r.route(i)
			return err
		}
	}
	par := r.par
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := range r.cells {
			if err := exec(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		stop   atomic.Bool
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				if err := exec(i); err != nil {
					stop.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
