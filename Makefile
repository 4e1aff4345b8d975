# Developer entry points. `make check` is the pre-PR gate (see ROADMAP.md).

GO ?= go

.PHONY: check vet build test race bench bench-compare bench-long fuzz profile serve-smoke fleet-smoke crash-smoke metrics-lint

check: vet build race fuzz metrics-lint serve-smoke fleet-smoke crash-smoke bench-long

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

# Short fuzz budgets over three untrusted input surfaces — trace files,
# fault-profile JSON, and the gob cell payloads that arrive from remote
# daemons and journals (decoding must never panic and must refuse a
# payload tagged for another slot type) — plus one equivalence
# property: the calendar queue must pop in exactly the reference heap's
# (time, seq) order on adversarial schedules. Go runs one fuzz target
# per invocation.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParseProfile$$' -fuzztime 10s
	$(GO) test ./internal/sim -run '^$$' -fuzz '^FuzzCalendarQueueEquivalence$$' -fuzztime 10s
	$(GO) test ./internal/experiments -run '^$$' -fuzz '^FuzzDecodeSlot$$' -fuzztime 10s

# Three passes over every benchmark at Quick scale; benchjson keeps the
# fastest run of each, and the parsed numbers land in BENCH_quick.json
# for cross-commit comparison. The fault and degraded drivers report
# separately in BENCH_faults.json — at -benchtime 5x, because those two
# benchmarks are cheap (~100-200 ms/op) and single-iteration samples on
# this host jitter more than the compare gate tolerates. Every pass also
# appends a timestamped record to BENCH_history.jsonl, so the trajectory
# across runs survives the snapshot files being overwritten.
bench:
	$(GO) test -bench . -benchmem -benchtime 1x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_quick.json -history BENCH_history.jsonl
	$(GO) test -bench '^Benchmark(Faults|Degraded)$$' -benchmem -benchtime 5x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -o BENCH_faults.json -history BENCH_history.jsonl

# Re-run the full benchmark pass (best of three, like bench) and diff
# simulator-cost metrics against the committed baselines; fails on a
# regression beyond the thresholds. allocs/op is deterministic and
# gates tight; ns/op and heapMB gate at -time-threshold 25 because
# repeated identical runs on a single-CPU virtualized host swing
# 10-20% between minute-apart invocations (allocs pinned at +-0.0%
# throughout), and a gate that cries wolf on idle noise teaches people
# to ignore it. See cmd/benchjson.
bench-compare:
	$(GO) test -bench . -benchmem -benchtime 1x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -compare BENCH_quick.json -time-threshold 25
	$(GO) test -bench '^Benchmark(Faults|Degraded)$$' -benchmem -benchtime 5x -count 3 -run '^$$' . | $(GO) run ./cmd/benchjson -compare BENCH_faults.json -time-threshold 25

# The flat-heap gate for long-horizon runs: BenchmarkLongRun replays the
# longrun source workload at 1x and 10x the simulated makespan and fails
# if the live heap after the long run exceeds the short one by > 10%.
bench-long:
	$(GO) test -bench '^BenchmarkLongRun$$' -benchmem -benchtime 1x -run '^$$' .

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
fleet-smoke:
	@set -e; \
	tmp=$$(mktemp -d); \
	trap 'kill $$p1 $$p2 $$p3 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/diskthrud ./cmd/diskthrud; \
	$(GO) build -o $$tmp/diskthru ./cmd/diskthru; \
	$(GO) build -o $$tmp/diskthru-fleet ./cmd/diskthru-fleet; \
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
	echo "fleet-smoke: OK (byte-identical to single-node)"
