GO ?= go

.PHONY: all build vet test race verify bench bench-smoke bench-device bench-epoch bench-json bench-tools fuzz-tools fuzz-smoke fuzz serve-tools serve-smoke dash-smoke fmt clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Tier-1 gate: everything compiles, vets clean, and the full suite
# passes both plainly (where the zero-alloc assertions run) and under
# the race detector (where they are skipped). bench-tools/fuzz-tools
# are build-only smokes for the tooling — no wall-clock gate.
verify: build vet test race bench-tools fuzz-tools serve-tools dash-smoke

bench:
	$(GO) test -bench=. -benchmem ./...

# NVM device micro-benchmarks: paged-store reads/writes and the
# WPQ/port scheduler, including the drain-watermark read path.
bench-device:
	$(GO) test -run xxx -bench 'BenchmarkDevice' -benchmem ./internal/nvm/

# Reduced parallel sweep: a quick end-to-end run of the evaluation
# harness that exercises the worker pool and the JSON reporter. The
# report lands on the gitignored smoke path — never in the checked-in
# results/BENCH_<n>.json record set (which only `make bench-json`
# regenerates, deliberately).
bench-smoke:
	mkdir -p results
	$(GO) run ./cmd/anubis-bench -fig10 -fig11 -n 2000 \
		-apps mcf,lbm,libquantum -parallel 4 -json results/smoke.json

# Determinism smokes share one shape: run the reduced fig10 sweep at
# two settings of a contractually metric-neutral knob, write both JSON
# reports, and gate with bench_compare -exact-metrics — every simulated
# metric and the per-component attribution ledger must be bit-identical
# (the consolidated replacement for the old cmp'd results/*.txt
# artifacts; smoke reports are transient, see .gitignore).
SMOKE_RUN = $(GO) run ./cmd/anubis-bench -fig10 -n 2000 -apps mcf,lbm,libquantum -parallel 1 -seed 99

# Epoch-pipeline smoke: coalescing window 1 must match the legacy eager
# path (window 0 — the epoch<=1 bypass contract), and a real window
# must complete the same sweep end to end.
bench-epoch:
	mkdir -p results
	$(SMOKE_RUN) -epoch 0 -json results/smoke_epoch0.json > /dev/null
	$(SMOKE_RUN) -epoch 1 -json results/smoke_epoch1.json > /dev/null
	$(GO) run ./scripts/bench_compare -exact-metrics results/smoke_epoch0.json results/smoke_epoch1.json
	$(SMOKE_RUN) -epoch 16 > /dev/null

# PR-tracking benchmark record: the fixed suite matrix (quick + full
# scale, sequential + parallel, epoch-pipeline sweep, forked-vs-cold
# recovery sweep with per-phase attribution) written to
# results/BENCH_14.json. Compare against the previous record:
#   go run ./scripts/bench_compare -epoch-sweep -max-recovery-phase-regress 0.1 results/BENCH_9.json results/BENCH_14.json
bench-json:
	mkdir -p results
	$(GO) run ./cmd/anubis-bench -suite -trials 50 -json results/BENCH_14.json

# Build-only smoke: the suite driver and the comparison tool keep
# compiling. Deliberately runs no benchmarks (wall-clock is too noisy
# to gate tier-1 on).
bench-tools:
	$(GO) build -o /dev/null ./cmd/anubis-bench
	$(GO) build -o /dev/null ./scripts/bench_compare

# Build-only smoke: the crash-injection fuzzer CLI keeps compiling.
fuzz-tools:
	$(GO) build -o /dev/null ./cmd/anubis-fuzz

# Build-only smoke: the multi-tenant service and its kvstore client
# keep compiling.
serve-tools:
	$(GO) build -o /dev/null ./cmd/anubis-serve
	$(GO) build -o /dev/null ./examples/kvstore

# End-to-end service smoke: a real anubis-serve process with 8
# concurrent kvstore tenants, a mid-workload crash+recovery of one
# tenant, quota/WPQ sheds answered with 429 and counted in /metrics,
# and a graceful-shutdown → restart → audit-clean cycle (see
# scripts/serve_smoke.sh).
serve-smoke:
	bash scripts/serve_smoke.sh

# Headless dashboard + flight-recorder smoke: the embedded /dash page
# serves with every section marker, /debug/dash.json stays parseable,
# /debug/events emits valid JSON lines, and the serve plane records the
# full request/crash/recover event life cycle. Pure `go test` — no
# browser, no server process — so it is cheap enough for tier-1.
dash-smoke:
	$(GO) test -count=1 -run 'TestDash' ./internal/obs/
	$(GO) test -count=1 -run 'TestFlightRecorder|TestServeWithoutRecorder' ./internal/serve/

# Short native-fuzz run: each target gets 10 s of coverage-guided
# mutation on top of its seed corpus. Crashfuzz failures are shrunk by
# re-running the printed token through `anubis-fuzz -replay` (see
# EXPERIMENTS.md "Crash-injection fuzzing"); FuzzLoadDevice holds the
# NVM image decoder to "never panic, and what loads re-saves to the
# same state" (DESIGN.md §8). Its minimization is capped at 100 runs:
# uncapped, shrinking the first new multi-KB input took the whole
# 10 s (about 400 runs in total instead of about 100,000).
fuzz-smoke:
	$(GO) test -run xxx -fuzz 'FuzzTrial$$' -fuzztime 10s ./internal/crashfuzz/
	$(GO) test -run xxx -fuzz 'FuzzParseSchedule$$' -fuzztime 10s ./internal/crashfuzz/
	$(GO) test -run xxx -fuzz 'FuzzLoadDevice$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/nvm/

# Long differential fuzz: 500 seeded random schedules across every
# scheme × crash model combination (the PR acceptance run).
fuzz:
	$(GO) run ./cmd/anubis-fuzz -trials 500 -seed 99

fmt:
	gofmt -w .

clean:
	rm -rf results
