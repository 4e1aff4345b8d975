package diskthru_test

import (
	"strings"
	"testing"

	"diskthru"
)

// TestLongRunWorkloadGates pins the source workload's facade behavior:
// accessors work without a materialized trace, and the replay rejects
// configurations the generated stream cannot serve.
func TestLongRunWorkloadGates(t *testing.T) {
	w, err := diskthru.LongRunWorkload(diskthru.LongRunOptions{
		Hours: 0.002, WriteFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := int(400 * 0.002 * 3600) // 2880 arrivals
	if got := w.Records(); got != wantRecords {
		t.Fatalf("Records = %d, want %d", got, wantRecords)
	}
	if got := w.WriteFraction(); got != 0.25 {
		t.Fatalf("WriteFraction = %v, want 0.25", got)
	}
	if got := w.ArrivalRateFor(); got != 400 {
		t.Fatalf("ArrivalRateFor = %v, want 400", got)
	}
	if w.BlockAccessCounts(5) != nil {
		t.Fatal("BlockAccessCounts on a source workload should be nil")
	}
	if err := w.EncodeTrace(&strings.Builder{}); err == nil {
		t.Fatal("EncodeTrace on a source workload should fail")
	}

	cfg := diskthru.DefaultConfig()
	if _, err := diskthru.Run(w, cfg); err == nil || !strings.Contains(err.Error(), "ArrivalRate") {
		t.Fatalf("closed-loop replay of a source workload: err = %v", err)
	}
	cfg.ArrivalRate = 400
	hdc := cfg.WithHDC(1024)
	if _, err := diskthru.Run(w, hdc); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Fatalf("HDC over a source workload: err = %v", err)
	}

	// The stream restarts deterministically: two replays agree exactly.
	a, err := diskthru.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := diskthru.Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.IOTime != b.IOTime || a.Latency != b.Latency || a.Requests != b.Requests {
		t.Fatalf("longrun replay is not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Latency.N != wantRecords {
		t.Fatalf("latency count %d, want one per record (%d)", a.Latency.N, wantRecords)
	}
	if a.Requests == 0 || a.IOTime <= 0 {
		t.Fatalf("degenerate longrun result: %+v", a)
	}
}
