package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diskthru"
	"diskthru/internal/experiments"
	"diskthru/internal/journal"
)

// writeRawRecords crafts a journal from literal JSON records, for
// record shapes the current record type can no longer produce.
func writeRawRecords(t *testing.T, dir string, recs []string) {
	t.Helper()
	w, _, err := journal.Open(filepath.Join(dir, journalFile), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// oldDegradedPayload rebuilds what daemons with two-phase cells
// journaled for degraded cell i: the healthy replay alone, under the
// plain-Result 'R' tag. It takes the healthy half of today's fused cell
// (gob matches struct fields by name) and re-tags it.
func oldDegradedPayload(t *testing.T, o experiments.Options, i int) []byte {
	t.Helper()
	fused, err := experiments.RunCell("degraded", o, experiments.CellID{Index: i})
	if err != nil {
		t.Fatal(err)
	}
	var pair struct{ First, Second diskthru.Result }
	if err := gob.NewDecoder(bytes.NewReader(fused[1:])).Decode(&pair); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteByte('R')
	if err := gob.NewEncoder(&buf).Encode(&pair.First); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOlderJournalRecovers boots a daemon on a journal in the record
// shapes of daemons that still had phased cells and intra-cell
// snapshots: cell ids carrying "phase", a "snap" record, and a cell
// job submitted with phase_results. The snap record is skipped as an
// unknown type, both unfinished jobs are re-admitted, the stale
// 'R'-tagged degraded payloads fail the slot tag check and re-run, and
// each output is byte-identical to a fresh run.
func TestOlderJournalRecovers(t *testing.T) {
	o := experiments.Quick()
	o.Parallelism = 1
	old := base64.StdEncoding.EncodeToString(oldDegradedPayload(t, o, 2))
	snap := base64.StdEncoding.EncodeToString([]byte("opaque snapshot state"))
	at := time.Now().UTC().Format(time.RFC3339Nano)
	dir := t.TempDir()
	writeRawRecords(t, dir, []string{
		// A whole-experiment job that journaled a healthy-phase cell and a
		// mid-cell snapshot of a fault-phase cell before the crash.
		fmt.Sprintf(`{"type":"submit","job":"j000001","spec":{"experiment":"degraded","quick":true,"parallelism":1},"submitted_at":%q}`, at),
		fmt.Sprintf(`{"type":"start","job":"j000001","at":%q}`, at),
		fmt.Sprintf(`{"type":"cell","job":"j000001","cell":{"phase":0,"index":2},"payload":%q}`, old),
		fmt.Sprintf(`{"type":"snap","job":"j000001","cell":{"phase":1,"index":0},"payload":%q}`, snap),
		// A fault-phase cell job carrying its healthy-phase payload, with
		// a stale result journaled under the phased id.
		fmt.Sprintf(`{"type":"submit","job":"j000002","spec":{"experiment":"degraded","quick":true,"parallelism":1,"cell":{"phase":1,"index":2},"phase_results":[{"cell":{"phase":0,"index":2},"payload":%q}]},"submitted_at":%q}`, old, at),
		fmt.Sprintf(`{"type":"start","job":"j000002","at":%q}`, at),
		fmt.Sprintf(`{"type":"cell","job":"j000002","cell":{"phase":1,"index":2},"payload":%q}`, old),
	})
	s, err := New(Config{QueueCap: 4, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s)

	table, err := experiments.Run("degraded", o)
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitJob(t, s, "j000001", time.Minute, terminal); v.State != StateDone {
		t.Fatalf("recovered experiment job ended %s: %s", v.State, v.Error)
	} else if v.Result != table.String() {
		t.Errorf("recovered table differs from a fresh run:\n--- fresh ---\n%s--- recovered ---\n%s",
			table.String(), v.Result)
	}
	fresh, err := experiments.RunCell("degraded", o, experiments.CellID{Index: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitJob(t, s, "j000002", time.Minute, terminal); v.State != StateDone {
		t.Fatalf("recovered cell job ended %s: %s", v.State, v.Error)
	} else if v.Result != base64.StdEncoding.EncodeToString(fresh) {
		t.Error("recovered cell payload differs from a fresh RunCell")
	}
	m := scrape(t, s)
	for _, want := range []string{
		`serve_jobs_recovered_total{disposition="resumed"} 2`,
		"serve_cells_replayed_total 0", // no stale payload was accepted
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestForeignSpecJournalReruns boots a daemon on a journal whose
// unfinished job was submitted with a spec field this version does not
// know: the stream_stats switch of daemons that let a job pick its
// latency summary. The job is kept and re-admitted, but its journaled
// cells are discarded — the field may have shaped them — so it re-runs
// from scratch to output byte-identical to a fresh run. The journaled
// cell is a well-formed payload of the wrong cell, which the table
// would show had it been trusted.
func TestForeignSpecJournalReruns(t *testing.T) {
	o := experiments.Quick()
	o.Parallelism = 1
	wrong, err := experiments.RunCell("longrun", o, experiments.CellID{Index: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := base64.StdEncoding.EncodeToString(wrong)
	at := time.Now().UTC().Format(time.RFC3339Nano)
	dir := t.TempDir()
	writeRawRecords(t, dir, []string{
		fmt.Sprintf(`{"type":"submit","job":"j000001","spec":{"experiment":"longrun","quick":true,"parallelism":1,"stream_stats":true},"submitted_at":%q}`, at),
		fmt.Sprintf(`{"type":"start","job":"j000001","at":%q}`, at),
		fmt.Sprintf(`{"type":"cell","job":"j000001","cell":{"index":0},"payload":%q}`, payload),
	})
	s, err := New(Config{QueueCap: 4, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainNow(t, s)

	table, err := experiments.Run("longrun", o)
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitJob(t, s, "j000001", time.Minute, terminal); v.State != StateDone {
		t.Fatalf("recovered job ended %s: %s", v.State, v.Error)
	} else if v.Result != table.String() {
		t.Errorf("recovered table differs from a fresh run:\n--- fresh ---\n%s--- recovered ---\n%s",
			table.String(), v.Result)
	}
	m := scrape(t, s)
	for _, want := range []string{
		`serve_jobs_recovered_total{disposition="resumed"} 1`,
		"serve_cells_replayed_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
