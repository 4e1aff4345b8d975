package experiments

import (
	"errors"
	"strings"
	"testing"

	"diskthru"
)

// remoteShim is a CellExec that simulates fleet execution in-process:
// every remotable cell is re-derived from scratch through RunCell —
// exactly what a daemon does for a cell job — and its payload injected;
// bare cells fall back to local execution. No state is shared with the
// driving invocation besides the payload bytes, so a passing test
// proves the wire decomposition alone reproduces the table.
func remoteShim(t *testing.T, name string, o Options) CellExec {
	t.Helper()
	return func(id CellID, run func() ([]byte, error), inject func([]byte) error) error {
		if inject == nil {
			_, err := run()
			return err
		}
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
//   - fig2:   bare computation cells (not remotable, local fallback)
//   - ext-victim: RunLive cells (LiveResult slot payloads)
//   - degraded: two dependent replays per cell (resultPair payloads)
func TestCellExecByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs experiments cell by cell")
	}
	for _, name := range []string{"table2", "fig2", "ext-victim", "degraded"} {
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
// unknown cells fail loudly instead of returning an empty payload.
func TestRunCellErrors(t *testing.T) {
	o := Quick()
	if _, err := RunCell("table2", o, CellID{Index: 999}); err == nil ||
		!strings.Contains(err.Error(), "no index") {
		t.Errorf("out-of-range index: err = %v, want 'no index'", err)
	}
	if _, err := RunCell("table2", o, CellID{Index: -1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := RunCell("fig2", o, CellID{Index: 0}); !errors.Is(err, ErrCellNotRemotable) {
		t.Errorf("bare computation cell: err = %v, want ErrCellNotRemotable", err)
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
	if err := decodeSlot(payload, &struct{}{}); !errors.Is(err, ErrCellNotRemotable) {
		t.Errorf("bad slot type: err = %v, want ErrCellNotRemotable", err)
	}
}

// twoWaits is a driver that waits twice: its second batch of cells is
// planned after the first batch finished, the shape a cell session
// cannot reproduce from a cell index alone.
func twoWaits(o Options) (*Table, error) {
	first := newRunner(o)
	first.add(func() error { return nil })
	if err := first.wait(); err != nil {
		return nil, err
	}
	second := newRunner(o)
	second.add(func() error { return nil })
	if err := second.wait(); err != nil {
		return nil, err
	}
	return &Table{ID: "two-waits"}, nil
}

// TestCellSessionRejectsSecondWait: a driver that waits twice under a
// cell session fails loudly instead of silently replaying its first
// batch; outside a session it still runs. The driver is called directly
// rather than registered, so registry-wide tests never see it.
func TestCellSessionRejectsSecondWait(t *testing.T) {
	if _, err := twoWaits(tiny()); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	o := tiny()
	o.cells = &cellSession{exec: func(_ CellID, run func() ([]byte, error), _ func([]byte) error) error {
		_, err := run()
		return err
	}}
	if _, err := twoWaits(o); !errors.Is(err, errWaitTwice) {
		t.Fatalf("second wait under a cell session: err = %v, want errWaitTwice", err)
	}
}

// FuzzDecodeSlot feeds arbitrary bytes — the shape of a payload from a
// remote daemon or a damaged journal — into every remotable slot type.
// Decoding must never panic, and a payload whose tag does not name the
// slot's type must be refused before gob sees it.
func FuzzDecodeSlot(f *testing.F) {
	for _, slot := range []any{
		&diskthru.Result{IOTime: 1.5, Requests: 3},
		&diskthru.LiveResult{},
		&resultPair{First: diskthru.Result{IOTime: 2}, Second: diskthru.Result{IOTime: 3}},
	} {
		payload, err := encodeSlot(slot)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{tagResultPair})
	f.Add([]byte("R\x00\xff"))
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, slot := range []any{new(diskthru.Result), new(diskthru.LiveResult), new(resultPair)} {
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
