package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"diskthru"
)

// remoteShim is a CellExec that simulates fleet execution in-process:
// every cell is re-derived from scratch through RunCell — exactly what
// a daemon does for a cell job — and its payload injected. No state is
// shared with the driving invocation besides the payload bytes, so a
// passing test proves the wire decomposition alone reproduces the
// table.
func remoteShim(t *testing.T, name string, o Options) CellExec {
	t.Helper()
	return func(id CellID, _ func() ([]byte, error), inject func([]byte) error) error {
		payload, err := RunCell(name, o, id)
		if err != nil {
			return err
		}
		return inject(payload)
	}
}

// TestCellExecByteIdentical drives a representative slice of the
// registry through the remote-cell path and requires the rendered
// tables to match a plain local run byte for byte:
//
//   - table2: the fleet acceptance sweep (multi-workload compare cells)
//   - fig1, fig2: computed values rather than replays ([]float64 payloads)
//   - model-vs-sim: replay cells and one value cell in one driver
//   - ext-victim: RunLive cells (LiveResult slot payloads)
//   - degraded: two dependent replays per cell (resultPair payloads)
func TestCellExecByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs experiments cell by cell")
	}
	for _, name := range []string{"table2", "fig1", "fig2", "model-vs-sim", "ext-victim", "degraded"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			o := Quick()
			o.Parallelism = 2 // exercise concurrent dispatch
			want, err := Run(name, o)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunWithCellExec(name, o, remoteShim(t, name, o))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("remote-cell table differs from local run:\n--- local ---\n%s--- remote ---\n%s",
					want.String(), got.String())
			}
		})
	}
}

// TestRunCellErrors pins the failure modes a coordinator depends on:
// unknown cells fail loudly instead of returning an empty payload, and
// a computed-values cell (fig2's per-server access counts) travels like
// any replay cell.
func TestRunCellErrors(t *testing.T) {
	o := Quick()
	if _, err := RunCell("table2", o, CellID{Index: 999}); err == nil ||
		!strings.Contains(err.Error(), "no index") {
		t.Errorf("out-of-range index: err = %v, want 'no index'", err)
	}
	if _, err := RunCell("table2", o, CellID{Index: -1}); err == nil {
		t.Error("negative index accepted")
	}
	payload, err := RunCell("fig2", o, CellID{Index: 0})
	if err != nil {
		t.Fatalf("fig2 cell: %v", err)
	}
	var counts []float64
	if err := decodeSlot(payload, &counts); err != nil || len(counts) < 3 || counts[0] <= 0 {
		t.Errorf("fig2 cell payload decoded to %v, %v; want the distinct-block count, accesses and rank counts", counts, err)
	}
	if _, err := RunCell("nope", o, CellID{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunCellPayloadDeterministic: the same cell encodes to the same
// bytes on every execution — the property that makes at-most-once
// acceptance a safety net rather than a correctness requirement.
func TestRunCellPayloadDeterministic(t *testing.T) {
	o := Quick()
	id := CellID{Index: 1}
	a, err := RunCell("table2", o, id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCell("table2", o, id)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("same cell produced different payloads across runs")
	}
}

// TestDecodeSlotTagMismatch: payloads can never be injected into a slot
// of the wrong type.
func TestDecodeSlotTagMismatch(t *testing.T) {
	o := Quick()
	payload, err := RunCell("table2", o, CellID{Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeSlot(payload, new(diskthru.LiveResult)); err == nil {
		t.Error("Result payload decoded into LiveResult slot")
	}
	if err := decodeSlot(nil, new(diskthru.LiveResult)); err == nil {
		t.Error("empty payload decoded")
	}
	if err := decodeSlot(payload, new([]float64)); err == nil {
		t.Error("Result payload decoded into a values slot")
	}
	if err := decodeSlot(payload, &struct{}{}); err == nil {
		t.Error("payload decoded into an untagged slot type")
	}
}

// twoWaits is a driver that waits twice: its second batch of cells is
// planned after the first batch finished, the shape a cell session
// cannot reproduce from a cell index alone.
func twoWaits(o Options) (*Table, error) {
	none := func() ([]float64, error) { return nil, nil }
	first := newRunner(o)
	first.values(none)
	if err := first.wait(); err != nil {
		return nil, err
	}
	second := newRunner(o)
	second.values(none)
	if err := second.wait(); err != nil {
		return nil, err
	}
	return &Table{ID: "two-waits"}, nil
}

// TestCellSessionRejectsSecondWait: a driver that waits twice under one
// cell session — every entry point opens one — fails loudly instead of
// silently replaying its first batch; called without one, each runner
// routes through a session of its own and it still runs. The driver is
// called directly rather than registered, so registry-wide tests never
// see it.
func TestCellSessionRejectsSecondWait(t *testing.T) {
	if _, err := twoWaits(tiny()); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	o := tiny()
	o.cells = &cellSession{exec: LocalExec}
	if _, err := twoWaits(o); !errors.Is(err, errWaitTwice) {
		t.Fatalf("second wait under a cell session: err = %v, want errWaitTwice", err)
	}
}

// TestCellExecContractEnforced: an exec that returns nil without running
// or injecting its cell would leave a zero slot in the table, so the
// runner refuses it and names the cell.
func TestCellExecContractEnforced(t *testing.T) {
	noop := func(CellID, func() ([]byte, error), func([]byte) error) error { return nil }
	o := Quick()
	o.Parallelism = 1
	if _, err := RunWithCellExec("faults", o, noop); err == nil || !strings.Contains(err.Error(), "cell c0") {
		t.Errorf("RunWithCellExec with a no-op exec: err = %v, want one naming cell c0", err)
	}
	if _, err := RunCellExec("faults", o, CellID{Index: 2}, noop); err == nil || !strings.Contains(err.Error(), "cell c2") {
		t.Errorf("RunCellExec with a no-op exec: err = %v, want one naming cell c2", err)
	}
}

// TestCheckpointed: a checkpoint journals every payload of a first run;
// resuming from it injects every cell without reaching exec except one
// whose journaled payload no longer decodes, which is recomputed and
// handed to the sink as fresh. Both tables match a plain run.
func TestCheckpointed(t *testing.T) {
	o := Quick()
	o.Parallelism = 1
	want, err := Run("faults", o)
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[CellID][]byte{}
	record := func(id CellID, payload []byte, replayed bool) {
		if replayed {
			t.Errorf("cell %v replayed from an empty checkpoint", id)
		}
		journaled[id] = payload
	}
	got, err := RunWithCellExec("faults", o, Checkpointed(LocalExec, nil, record))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("journaling run diverged:\n--- local ---\n%s--- journaling ---\n%s", want, got)
	}

	stale := CellID{Index: 1}
	bad := append([]byte{tagLiveResult}, journaled[stale][1:]...)
	if journaled[stale][0] == tagLiveResult {
		bad[0] = tagResult
	}
	journaled[stale] = bad
	var replayed int
	var fresh []CellID
	sink := func(id CellID, _ []byte, fromCheckpoint bool) {
		if fromCheckpoint {
			replayed++
		} else {
			fresh = append(fresh, id)
		}
	}
	exec := func(id CellID, run func() ([]byte, error), inject func([]byte) error) error {
		if id != stale {
			return fmt.Errorf("journaled cell %v reached exec", id)
		}
		return LocalExec(id, run, inject)
	}
	got, err = RunWithCellExec("faults", o, Checkpointed(exec, journaled, sink))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("resumed run diverged:\n--- local ---\n%s--- resumed ---\n%s", want, got)
	}
	if replayed != len(journaled)-1 || len(fresh) != 1 || fresh[0] != stale {
		t.Errorf("replayed %d cells and recomputed %v; want %d replayed and only %v recomputed",
			replayed, fresh, len(journaled)-1, stale)
	}
}

// FuzzDecodeSlot feeds arbitrary bytes — the shape of a payload from a
// remote daemon or a damaged journal — into every slot type.
// Decoding must never panic, and a payload whose tag does not name the
// slot's type must be refused before gob sees it.
func FuzzDecodeSlot(f *testing.F) {
	for _, slot := range []any{
		&diskthru.Result{IOTime: 1.5, Requests: 3},
		&diskthru.LiveResult{},
		&resultPair{First: diskthru.Result{IOTime: 2}, Second: diskthru.Result{IOTime: 3}},
		&[]float64{300000, 1.5e6, math.NaN()},
	} {
		payload, err := encodeSlot(slot)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{tagResultPair})
	f.Add([]byte{tagValues})
	f.Add([]byte("R\x00\xff"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, slot := range []any{new(diskthru.Result), new(diskthru.LiveResult), new(resultPair), new([]float64)} {
			want, err := slotTag(slot)
			if err != nil {
				t.Fatal(err)
			}
			if decodeSlot(payload, slot) == nil && payload[0] != want {
				t.Fatalf("payload tagged %q decoded into %T", payload[0], slot)
			}
		}
	})
}
