package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"diskthru/internal/experiments"
	"diskthru/internal/fleet"
	"diskthru/internal/journal"
	"diskthru/internal/metrics"
)

// procDaemon is one real diskthrud child process.
type procDaemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *bytes.Buffer
}

// startDaemons builds diskthrud once and boots n child processes on
// ephemeral ports, returning once every one has published its address.
func startDaemons(t *testing.T, n int) []*procDaemon {
	t.Helper()
	dir := t.TempDir()
	bin := buildBinary(t, dir, "../diskthrud", "diskthrud")
	daemons := make([]*procDaemon, n)
	for i := range daemons {
		addrFile := filepath.Join(dir, fmt.Sprintf("addr%d", i))
		d := &procDaemon{stderr: &bytes.Buffer{}}
		d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
		d.cmd.Stderr = d.stderr
		if err := d.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			d.cmd.Process.Kill() //nolint:errcheck
			d.cmd.Wait()         //nolint:errcheck
		})
		daemons[i] = d
		for deadline := time.Now().Add(10 * time.Second); ; {
			if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
				d.base = "http://" + strings.TrimSpace(string(raw))
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %d never wrote its address; stderr:\n%s", i, d.stderr.String())
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return daemons
}

// hasRunningJob reports whether the daemon's job index shows any job
// currently executing.
func hasRunningJob(base string) bool {
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var entries []struct {
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		return false
	}
	for _, e := range entries {
		if e.State == "running" {
			return true
		}
	}
	return false
}

// counterValue digs one counter family's summed value out of a
// coordinator metrics scrape.
func counterValue(t *testing.T, c *fleet.Coordinator, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			total += s.Value
		}
	}
	return total
}

// TestFleetSurvivesDaemonKill is the failover acceptance test against
// real processes: three diskthrud daemons run a table2 sweep, one is
// SIGKILLed the moment it reports a running cell job, and the merged
// table must still be byte-identical to the single-node serial run.
func TestFleetSurvivesDaemonKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots real daemon processes")
	}
	ref := experiments.Quick()
	ref.Parallelism = 1
	want, err := experiments.Run("table2", ref)
	if err != nil {
		t.Fatal(err)
	}

	daemons := startDaemons(t, 3)
	endpoints := make([]string, len(daemons))
	for i, d := range daemons {
		endpoints[i] = d.base
	}
	c, err := fleet.New(fleet.Config{
		Endpoints: endpoints,
		Window:    2,
		Backoff:   fleet.Backoff{Base: 20 * time.Millisecond, Max: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		table *experiments.Table
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		tbl, err := c.Run(context.Background(), "table2", experiments.Quick())
		done <- outcome{tbl, err}
	}()

	// Kill the victim only once it demonstrably owns in-flight work, so
	// the sweep must requeue, not merely reroute.
	victim := daemons[0]
	killed := false
	for deadline := time.Now().Add(2 * time.Minute); !killed; {
		select {
		case out := <-done:
			// The sweep finished before the victim ever ran a cell — that
			// would mean the test never exercised failover.
			t.Fatalf("sweep finished before the kill (err=%v)", out.err)
		default:
		}
		if hasRunningJob(victim.base) {
			if err := victim.cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			victim.cmd.Wait() //nolint:errcheck
			killed = true
			t.Logf("killed %s mid-job", victim.base)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim daemon never ran a job; stderr:\n%s", victim.stderr.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	var out outcome
	select {
	case out = <-done:
	case <-time.After(5 * time.Minute):
		t.Fatal("sweep did not finish after daemon kill")
	}
	if out.err != nil {
		t.Fatalf("sweep failed after daemon kill: %v", out.err)
	}
	if out.table.String() != want.String() {
		t.Errorf("post-failover table differs from single-node run:\n--- single ---\n%s--- fleet ---\n%s",
			want, out.table)
	}
	requeued := counterValue(t, c, "fleet_cells_requeued_total")
	completed := counterValue(t, c, "fleet_cells_completed_total")
	t.Logf("failover sweep: completed=%v requeued=%v local=%v",
		completed, requeued, counterValue(t, c, "fleet_cells_local_total"))
	if requeued == 0 {
		// The killed job can, rarely, have delivered its result in the
		// poll just before SIGKILL landed; byte-identity above is the
		// hard guarantee, so only note it.
		t.Log("kill landed after the victim's last result; no requeue observed")
	}
}

// buildBinary compiles the command package at pkg into dir.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	build := exec.Command("go", "build", "-o", bin, pkg)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building %s: %v", name, err)
	}
	return bin
}

// journaledCells counts the cell records in a coordinator journal that
// another process is still appending to. It replays a copy at cp, so
// the live file is never truncated; a torn tail in the copy is dropped.
func journaledCells(t *testing.T, path, cp string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	if err := os.WriteFile(cp, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cells := 0
	w, _, err := journal.Open(cp, func(p []byte) error {
		var rec struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(p, &rec) == nil && rec.Type == "cell" {
			cells++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close() //nolint:errcheck
	return cells
}

// TestCoordinatorCrashResume is the coordinator's crash check against
// real processes: a journaling diskthru-fleet sweep of fig7 is
// SIGKILLed once two cell payloads are journaled, rerun with -resume,
// and its output must be byte-identical to `diskthru -experiment fig7
// -quick -j 1`. A sweep that finishes before the kill fails the test.
func TestCoordinatorCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemon and coordinator processes")
	}
	d := startDaemons(t, 1)[0]
	dir := t.TempDir()
	fleetBin := buildBinary(t, dir, ".", "diskthru-fleet")
	cliBin := buildBinary(t, dir, "../diskthru", "diskthru")
	want, err := exec.Command(cliBin, "-experiment", "fig7", "-quick", "-j", "1").Output()
	if err != nil {
		t.Fatal(err)
	}

	state := filepath.Join(dir, "state")
	args := []string{"-daemons", d.base, "-experiment", "fig7", "-quick",
		"-window", "1", "-state-dir", state}
	var firstLog bytes.Buffer
	first := exec.Command(fleetBin, args...)
	first.Stderr = &firstLog
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- first.Wait() }()
	t.Cleanup(func() { first.Process.Kill() }) //nolint:errcheck
	for deadline := time.Now().Add(time.Minute); ; {
		select {
		case err := <-exited:
			t.Fatalf("sweep finished before the kill (err=%v); stderr:\n%s", err, firstLog.String())
		default:
		}
		if n := journaledCells(t, filepath.Join(state, "fleet.journal"), filepath.Join(dir, "copy.journal")); n >= 2 {
			if err := first.Process.Kill(); err != nil {
				t.Fatalf("killing the coordinator: %v", err)
			}
			if err := <-exited; err == nil {
				t.Fatalf("sweep finished before the kill; stderr:\n%s", firstLog.String())
			}
			t.Logf("killed the coordinator with %d cells journaled", n)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never held two cells; stderr:\n%s", firstLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	var secondLog bytes.Buffer
	second := exec.Command(fleetBin, append(args, "-resume")...)
	second.Stderr = &secondLog
	got, err := second.Output()
	if err != nil {
		t.Fatalf("resumed sweep: %v; stderr:\n%s", err, secondLog.String())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed output differs from single-node run:\n--- single ---\n%s--- resumed ---\n%s", want, got)
	}
	m := regexp.MustCompile(`"sweep done".*\bresumed=(\d+)`).FindStringSubmatch(secondLog.String())
	if m == nil {
		t.Fatalf("resumed sweep logged no summary; stderr:\n%s", secondLog.String())
	}
	if n, _ := strconv.Atoi(m[1]); n < 2 {
		t.Errorf("resumed sweep injected %d journaled cells, want at least 2", n)
	}
}
