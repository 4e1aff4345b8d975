# Developer entry points. `make check` is the pre-PR gate (see ROADMAP.md).

GO ?= go

.PHONY: check fmt vet build test race allocs bench-long bench-smoke fuzz profile results serve-smoke fleet-smoke crash-smoke fleet-crash-smoke metrics-lint loc

check: fmt vet build race allocs fuzz metrics-lint serve-smoke fleet-smoke crash-smoke fleet-crash-smoke bench-long bench-smoke

# The tree stays gofmt-clean: fail listing any file gofmt would change.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -race covers the experiment worker pool: TestSerialParallelEquivalence
# runs every driver's cells on an 8-worker pool, and the telemetry
# isolation test runs concurrent replays on one shared Telemetry.
# -shuffle=on randomizes test order so accidental inter-test state
# (shared registries, leftover files) surfaces instead of hiding behind
# a lucky fixed order.
race:
	$(GO) test -race -shuffle=on ./...

# The allocation gate. The race detector changes allocation counts, so
# every allocation guard that counts whole runs is built only without
# -race and `make race` skips it; this runs each in an ordinary build:
# TestDriverAllocBudget (root) and TestOpenLoopAllocationsFlat
# (internal/host).
allocs:
	$(GO) test -run '^TestDriverAllocBudget$$' -count 1 .
	$(GO) test -run '^TestOpenLoopAllocationsFlat$$' -count 1 ./internal/host

# Short fuzz budgets over five untrusted input surfaces — trace files,
# fault-profile JSON, POST /v1/jobs bodies (decoding and validation must
# never panic, and every accepted spec must resolve to valid experiment
# options), the gob cell payloads that arrive from remote daemons and
# journals (decoding must never panic and must refuse a payload tagged
# for another slot type), and the journal records a restarting daemon
# replays (no record may panic it: each journal is refused with an error
# or replayed, every job once) — plus three equivalence
# properties: the event heap must pop in exactly the (time, seq) order
# of a container/heap oracle on adversarial schedules, the run-granular
# controller caches must answer every query exactly as their
# block-at-a-time references do, and the host buffer cache must match a
# map-plus-list LRU in every miss, eviction, counter and FlushDirty
# order. Go runs one fuzz target per invocation.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParseProfile$$' -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzSubmitSpec$$' -fuzztime 10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzJournalRecover$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzEventOrder$$' -fuzztime 10s
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzDecodeSlot$$' -fuzztime 10s
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/bufcache -run '^$$' -fuzz '^FuzzBufcacheEquivalence$$' -fuzztime 10s

# The flat-heap gate for long-horizon runs: BenchmarkLongRun replays the
# longrun source workload at 1x and 10x the simulated makespan and fails
# if the live heap after the long run exceeds the short one by > 10%.
bench-long:
	$(GO) test -bench '^BenchmarkLongRun$$' -benchmem -benchtime 1x -run '^$$' .

# The benchmark module's smoke test at a tiny scale. bench/ is its own
# Go module, so `go test ./...` at the root never builds it; this keeps
# the entry points it calls (host.PlanHDC, geom.Compile().MediaOp, the
# cache stores, the experiment and serve APIs) from drifting under it.
bench-smoke:
	cd bench && $(GO) test ./...

# Regenerate results_default.txt: every registered experiment at the
# committed Defaults scales, with per-experiment wall time. Tables are
# deterministic; only the "(… took Ns)" lines change between runs.
# TestResultsDefaultCoversRegistry fails when a driver is missing.
results:
	$(GO) run ./cmd/diskthru -all -time >results_default.txt

# Lines of non-test Go in the root package, internal/ and cmd/: the
# size the ROADMAP tracks from change to change. Not part of check.
loc:
	@(ls *.go | grep -v _test.go; find internal cmd -name '*.go' ! -name '*_test.go') | xargs cat | wc -l

# CPU and heap profiles of the Table 2 pipeline (the hottest full-system
# path: all three workloads against both systems). Inspect with
# `go tool pprof cpu.prof`.
profile:
	$(GO) run ./cmd/diskthru -experiment table2 -quick -cpuprofile cpu.prof -memprofile mem.prof

# Crash-injection smoke test with real processes and a real SIGKILL:
# boot a journal-enabled diskthrud, submit table2, SIGKILL the daemon
# while cell payloads are still streaming into the journal, restart it
# on the same -state-dir, and require the recovered job's output to diff
# byte-identically against a fresh single-process `diskthru -j 1` run.
# The in-process variants (torn mid-append frames at every byte offset,
# hand-crafted journals) run in the test suite; this exercises the same
# path end to end.
crash-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill -9 $$pid $$pid2 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru ./cmd/diskthru; \
	$(GO) build -o $$tmp/diskthru-client ./cmd/diskthru-client; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a1 \
		-state-dir $$tmp/state >$$tmp/d1.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/a1 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a1 ] || { \
		echo "crash-smoke: daemon never wrote its address"; \
		cat $$tmp/d1.log; exit 1; }; \
	job=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a1)" \
		submit -experiment table2 -quick -j 1 -key crash-smoke); \
	for i in $$(seq 1 600); do \
		ok=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a1)" metrics \
			| awk '$$1 == "serve_journal_appends_total" && $$2 >= 4 {print "yes"}'); \
		[ "$$ok" = yes ] && break; sleep 0.05; done; \
	[ "$$ok" = yes ] || { \
		echo "crash-smoke: journal never accumulated cell records"; \
		cat $$tmp/d1.log; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a2 \
		-state-dir $$tmp/state >$$tmp/d2.log 2>&1 & pid2=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/a2 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a2 ] || { \
		echo "crash-smoke: restarted daemon never wrote its address"; \
		cat $$tmp/d2.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a2)" metrics \
		| grep '^serve_jobs_recovered_total{disposition="resumed"} 1' >/dev/null || { \
		echo "crash-smoke: restarted daemon did not recover the job"; \
		cat $$tmp/d2.log; exit 1; }; \
	$$tmp/diskthru-client -addr "http://$$(cat $$tmp/a2)" \
		wait "$$job" >$$tmp/recovered.out; \
	echo >>$$tmp/recovered.out; \
	$$tmp/diskthru -experiment table2 -quick -j 1 >$$tmp/single.out; \
	diff -u $$tmp/single.out $$tmp/recovered.out || { \
		echo "crash-smoke: recovered output is not byte-identical to single-node"; \
		cat $$tmp/d2.log; exit 1; }; \
	replayed=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/a2)" metrics \
		| awk '$$1 == "serve_cells_replayed_total" {print $$2}'); \
	echo "crash-smoke: OK (byte-identical after SIGKILL; $$replayed cells replayed from journal)"

# Coordinator crash-resume check with real processes: one diskthrud and
# a journaling diskthru-fleet sweep of fig7 -quick at -window 1; the
# coordinator is SIGKILLed once two cell payloads are journaled, rerun
# with -resume, and its output diffed against `diskthru -j 1`. A sweep
# that finishes before the kill fails the check.
fleet-crash-smoke:
	$(GO) test ./cmd/diskthru-fleet -run '^TestCoordinatorCrashResume$$' -count 1

# Scrape a live test daemon's /metrics through HTTP and validate every
# family with the exposition parser and linter (naming conventions,
# HELP/TYPE metadata, histogram invariants, counter monotonicity across
# scrapes). Guards the Prometheus surface the same way the golden files
# guard the tables.
metrics-lint:
	$(GO) test ./internal/serve -run '^TestMetricsLint$$' -count 1
	$(GO) test ./internal/metrics -count 1

# End-to-end daemon smoke test: boot diskthrud on an ephemeral port,
# run fig1 -quick through diskthru-client, require a non-empty table.
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru-client ./cmd/diskthru-client; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/addr \
		>$$tmp/daemon.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	[ -s $$tmp/addr ] || { \
		echo "serve-smoke: daemon never wrote its address"; \
		cat $$tmp/daemon.log; exit 1; }; \
	out=$$($$tmp/diskthru-client -addr "http://$$(cat $$tmp/addr)" \
		run -experiment fig1 -quick); \
	[ -n "$$out" ] || { echo "serve-smoke: empty result"; exit 1; }; \
	printf '%s\n' "$$out" | head -n 3; \
	echo "serve-smoke: OK"

# Fleet smoke test: boot three diskthrud daemons, run table2 -quick
# through the coordinator, and require the merged table to be
# byte-identical to a single-node `diskthru -j 1` run — the fleet's
# central determinism guarantee, checked end to end with real processes.
# Then scrape every daemon's /metrics and require the summed workload
# hits of the warm cache to be positive: the sweep's own traffic must
# reuse built workloads.
fleet-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru ./cmd/diskthru; \
	$(GO) build -o $$tmp/diskthru-fleet ./cmd/diskthru-fleet; \
	$(GO) build -o $$tmp/diskthru-client ./cmd/diskthru-client; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a1 >$$tmp/d1.log 2>&1 & p1=$$!; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a2 >$$tmp/d2.log 2>&1 & p2=$$!; \
	$$tmp/diskthrud -addr 127.0.0.1:0 -addr-file $$tmp/a3 >$$tmp/d3.log 2>&1 & p3=$$!; \
	for i in $$(seq 1 100); do \
		[ -s $$tmp/a1 ] && [ -s $$tmp/a2 ] && [ -s $$tmp/a3 ] && break; sleep 0.1; done; \
	[ -s $$tmp/a1 ] && [ -s $$tmp/a2 ] && [ -s $$tmp/a3 ] || { \
		echo "fleet-smoke: daemons never wrote their addresses"; \
		cat $$tmp/d1.log $$tmp/d2.log $$tmp/d3.log; exit 1; }; \
	$$tmp/diskthru -experiment table2 -quick -j 1 >$$tmp/single.out; \
	$$tmp/diskthru-fleet -daemons "$$(cat $$tmp/a1),$$(cat $$tmp/a2),$$(cat $$tmp/a3)" \
		-experiment table2 -quick >$$tmp/fleet.out 2>$$tmp/fleet.log; \
	diff -u $$tmp/single.out $$tmp/fleet.out || { \
		echo "fleet-smoke: fleet output is not byte-identical to single-node"; \
		cat $$tmp/fleet.log; exit 1; }; \
	head -n 3 $$tmp/fleet.out; \
	hits=$$(for a in a1 a2 a3; do \
		$$tmp/diskthru-client -addr "http://$$(cat $$tmp/$$a)" metrics; done \
		| awk '$$1 == "serve_cache_hits_total{kind=\"workload\"}" {s += $$2} END {print s + 0}'); \
	[ "$$hits" -gt 0 ] || { \
		echo "fleet-smoke: the sweep never hit the daemons' workload cache"; \
		cat $$tmp/d1.log $$tmp/d2.log $$tmp/d3.log; exit 1; }; \
	echo "fleet-smoke: OK (byte-identical to single-node; $$hits workload cache hits)"
