package experiments

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"diskthru"
)

// The fleet coordinator (internal/fleet) shards an experiment across
// many daemons at the granularity the parallel runner already uses: one
// cell is one independent unit of simulation writing one result slot.
// This file exports that decomposition without exposing the runner
// itself.
//
// A cell is addressed by a CellID that is deterministic for a given
// (experiment, Options) pair: its position in the order the driver
// enumerated its cells. Every driver is single-phase — it enumerates
// all cells, waits once, then assembles the table — so any cell can
// run anywhere with nothing but the experiment name, the options and
// its index. A cell whose configuration depends on another replay's
// result runs both replays itself (the degraded driver derives its
// disk-death time from the healthy replay inside one cell) and returns
// both results in one slot.
//
// Remote results travel as gob: float64 round-trips bit-exact, so a
// table assembled from remotely-executed cells is byte-identical to a
// local run.

// CellID names one simulation cell of one experiment deterministically.
type CellID struct {
	// Index is the cell's position in the order the driver enumerated
	// its cells.
	Index int `json:"index"`
}

func (id CellID) String() string { return fmt.Sprintf("c%d", id.Index) }

// CellExec dispatches one cell on behalf of RunWithCellExec. run
// executes the cell locally on the calling goroutine and returns the
// cell's encoded result slot — the same payload RunCell would produce —
// or nil for cells with no transportable result, so a checkpointing
// executor (internal/serve's journal) can persist locally-computed
// cells without re-encoding. inject accepts a payload produced by
// RunCell (or a previous run) for the same (experiment, Options, id)
// and writes it into the cell's result slot; it is nil for cells that
// are pure local computations with no transportable result — those must
// be executed via run. Exactly one of run or inject must succeed before
// CellExec returns nil.
type CellExec func(id CellID, run func() ([]byte, error), inject func(payload []byte) error) error

// cellSession carries per-invocation cell state into the runner a
// driver creates. exec routes cells; with target set (RunCellExec)
// only that cell is routed and its payload captured.
type cellSession struct {
	exec    CellExec
	target  *CellID
	payload []byte // the target cell's encoded slot, once captured
	waited  bool   // wait has run once; a second call is an error
}

// errCellCaptured aborts a driver once RunCell has what it came for:
// the target cell ran and its slot is encoded in the session. Drivers
// return wait errors unchanged, so the sentinel surfaces in RunCell.
var errCellCaptured = errors.New("experiments: cell captured")

// errWaitTwice rejects a driver that waits a second time under a cell
// session: its later cells would be planned from earlier results the
// session cannot carry. Such a driver must fold each dependent chain
// into one cell (see Degraded).
var errWaitTwice = errors.New("experiments: driver waits twice under a cell session; fold dependent replays into one cell")

// ErrCellNotRemotable marks cells whose result cannot be transported: a
// bare computation writing driver-local state rather than a result
// slot. Coordinators run such cells locally.
var ErrCellNotRemotable = errors.New("experiments: cell is not remotable")

// resultPair is the slot of a cell that runs two dependent replays, the
// second configured from the first's result.
type resultPair struct {
	First, Second diskthru.Result
}

// Slot payloads are tagged with the slot's type so a payload can never
// be decoded into the wrong kind of slot (LiveResult embeds Result, and
// gob matches by field name, so an untagged mismatch could decode
// silently).
const (
	tagResult     = 'R'
	tagLiveResult = 'L'
	tagResultPair = 'P'
)

// slotTag returns the payload tag of a remotable slot.
func slotTag(slot any) (byte, error) {
	switch slot.(type) {
	case *diskthru.Result:
		return tagResult, nil
	case *diskthru.LiveResult:
		return tagLiveResult, nil
	case *resultPair:
		return tagResultPair, nil
	}
	return 0, fmt.Errorf("%w (slot type %T)", ErrCellNotRemotable, slot)
}

// encodeSlot serializes one cell's result slot.
func encodeSlot(slot any) ([]byte, error) {
	tag, err := slotTag(slot)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteByte(tag)
	if err := gob.NewEncoder(&buf).Encode(slot); err != nil {
		return nil, fmt.Errorf("experiments: encoding cell result: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeSlot writes a RunCell payload into the matching local slot.
func decodeSlot(payload []byte, slot any) error {
	want, err := slotTag(slot)
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		return fmt.Errorf("experiments: empty cell payload")
	}
	if payload[0] != want {
		return fmt.Errorf("experiments: cell payload tag %q does not match slot type (want %q)",
			payload[0], want)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload[1:])).Decode(slot); err != nil {
		return fmt.Errorf("experiments: decoding cell result: %w", err)
	}
	return nil
}

// RunCell executes exactly one cell of one experiment and returns its
// encoded result slot — the daemon side of fleet execution. The driver
// enumerates its cells, only the target runs, and the driver is then
// aborted. The payload is opaque to callers; hand it to the inject
// callback of a RunWithCellExec dispatch of the same (name, o, id) to
// reproduce a local run bit for bit.
func RunCell(name string, o Options, id CellID) ([]byte, error) {
	return RunCellExec(name, o, id, func(_ CellID, run func() ([]byte, error), _ func([]byte) error) error {
		_, err := run()
		return err
	})
}

// RunCellExec is RunCell with the target cell routed through exec, so a
// caller holding an earlier payload for it (a journal checkpoint, a
// cache) can inject that instead of running. Injection decodes into the
// target's slot first, so a payload of the wrong slot type is refused
// by exec's inject and the caller can fall back to run. The returned
// payload is whichever of the two succeeded.
func RunCellExec(name string, o Options, id CellID, exec CellExec) ([]byte, error) {
	fn, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if id.Index < 0 {
		return nil, fmt.Errorf("experiments: negative cell id %v", id)
	}
	o.initWarm(name)
	sess := &cellSession{exec: exec, target: &id}
	o.cells = sess
	_, err = fn(o)
	switch {
	case errors.Is(err, errCellCaptured):
		return sess.payload, nil
	case err != nil:
		return nil, err
	default:
		// The driver returned without waiting on any cell.
		return nil, fmt.Errorf("experiments: %s has no cell %v", name, id)
	}
}

// RunWithCellExec runs an experiment with every cell routed through
// exec instead of the local worker pool — the coordinator side of fleet
// execution. The driver still enumerates cells and assembles the table
// locally, so presentation order is preserved no matter where or in
// what order cells execute; with exec injecting RunCell payloads, the
// rendered table is byte-identical to a plain Run. Cells are dispatched
// concurrently up to o.Parallelism (the fleet sets this to its total
// in-flight window).
func RunWithCellExec(name string, o Options, exec CellExec) (*Table, error) {
	fn, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	if exec == nil {
		return nil, fmt.Errorf("experiments: nil CellExec")
	}
	o.initWarm(name)
	o.cells = &cellSession{exec: exec}
	return fn(o)
}
