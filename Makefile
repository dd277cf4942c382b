# Development targets for the jitgc reproduction.
#
# `make ci` is the gate every change must pass: it builds everything, vets
# it, checks gofmt, and runs the full test suite under the race detector —
# the experiment grids execute simulation cells concurrently
# (Options.Workers), so race-cleanliness is a correctness requirement, not a
# style preference.
# That run includes the committed fuzz seed corpora and the fault, array and
# multi-tenant sweeps. It also tests the nested bench/ module and fails if
# statement coverage of internal/... drops below the recorded baseline.

GO ?= go
COVERAGE_BASELINE := $(shell cat ci/coverage-baseline.txt)

# PR number stamped into archived benchmark artifacts (BENCH_pr$(PR).json).
# Bump per PR instead of editing the bench targets.
PR ?= 15

# Benchmark repeats per run. 1 for the smoke run and gate; bench-compare
# raises it so the Mann–Whitney U test has samples to work with.
COUNT ?= 1

.PHONY: ci build vet fmt-check test test-race bench-test coverage-gate fuzz bench-run bench bench-gate bench-baseline bench-compare bench-full bench-scale

# Tolerance band for the bytes-per-logical-page memory gate: the FTL's
# metadata footprint (heap delta around construction, measured by
# BenchmarkFTLMemoryFootprint at the million-page geometry) may grow at
# most 10% + 1 B/page past the checked-in baseline before CI fails.
BYTES_PER_LPAGE_BAND := bytes/lpage=1.10,1.0

# Absolute floors for the binlog trace format (BenchmarkBinlogVsJSONL):
# the columnar encoding must stay ≥10× smaller and ≥5× faster to encode
# than JSONLSink on the recorded event mix. These are floors, not
# baseline-relative bands — the format's reason to exist is quantified.
BINLOG_FLOORS := -min-metric size-x=10 -min-metric speed-x=5

ci: build vet fmt-check test-race bench-test coverage-gate bench-gate

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints the files it would rewrite; any output fails the build.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:"; echo "$$out"; exit 1; }

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The benchmark harness under bench/ is a nested module (its own go.mod), so
# ./... above never reaches it; its tests check the harness against the
# simulator's public API, including that the stepped driver reproduces
# RunClosedLoop.
bench-test:
	cd bench && $(GO) test ./...

# Fail if total statement coverage of internal/... falls below the
# baseline recorded in ci/coverage-baseline.txt. Raise the baseline when
# coverage improves; never lower it to make a red build green.
coverage-gate:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "internal/... coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% below baseline $(COVERAGE_BASELINE)%"; exit 1; }

# Open-ended fuzzing session for the trace parsers (not part of ci).
fuzz:
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzDecodeMSR -fuzztime 30s ./internal/trace/

# Benchmark smoke run: one iteration of the telemetry-overhead benchmarks
# plus the latency-recorder and hot-path (victim selection, steady-state
# write and sequential fill at 512/8,192/131,072 blocks, write-back tick)
# microbenchmarks, collected into bench.out. The paper benchmarks run at
# full scale via bench-full.
bench-run:
	$(GO) test -bench='Telemetry|StreamingLatency' -benchmem -benchtime=1x -count=$(COUNT) -run '^$$' . | tee bench.out
	$(GO) test -bench='LogHist|Percentile' -benchmem -benchtime=100x -count=$(COUNT) -run '^$$' \
		./internal/telemetry/ ./internal/metrics/ | tee -a bench.out
	$(GO) test -bench='VictimSelect|SteadyStateWrite|SequentialFill|WriteBackTick' -benchmem -benchtime=10000x -count=$(COUNT) -run '^$$' \
		./internal/ftl/ | tee -a bench.out
	$(GO) test -bench='FTLMemoryFootprint' -benchmem -benchtime=1x -count=$(COUNT) -run '^$$' \
		./internal/ftl/ | tee -a bench.out
	$(GO) test -bench='Dispatch|Arrival' -benchmem -benchtime=10000x -count=$(COUNT) -run '^$$' \
		./internal/tenant/ | tee -a bench.out
	$(GO) test -bench='BinlogEncode|BinlogDecode|JSONLEncode' -benchmem -benchtime=200000x -count=$(COUNT) -run '^$$' \
		./internal/telemetry/binlog/ | tee -a bench.out
	$(GO) test -bench='BinlogVsJSONL' -benchmem -benchtime=50x -count=$(COUNT) -run '^$$' \
		./internal/telemetry/binlog/ | tee -a bench.out

bench: bench-run
	$(GO) run ./ci/benchjson -in bench.out -out BENCH_pr$(PR).json

# Scale artifact: the million-page memory-footprint measurement plus the
# hot-path benchmarks at growing block counts, archived per PR (the PR 6
# original lives in BENCH_pr6.json).
bench-scale:
	$(GO) test -bench='FTLMemoryFootprint' -benchmem -benchtime=1x -run '^$$' \
		./internal/ftl/ | tee bench-scale.out
	$(GO) test -bench='VictimSelect|SteadyStateWrite|SequentialFill' -benchmem -benchtime=10000x -count=$(COUNT) -run '^$$' \
		./internal/ftl/ | tee -a bench-scale.out
	$(GO) run ./ci/benchjson -in bench-scale.out -out BENCH_pr$(PR)-scale.json

# Benchmark regression gate: rerun the smoke benchmarks and compare against
# the checked-in baseline. Allocation and B/op bands are tight (these are
# deterministic under seeded workloads); ns/op is a wide catastrophe
# detector so CI noise does not flake the build. After an intentional
# performance change, refresh the baseline with `make bench-baseline` and
# commit ci/bench-baseline.json alongside the change.
bench-gate: bench-run
	$(GO) run ./ci/benchjson -gate -baseline ci/bench-baseline.json \
		-metric '$(BYTES_PER_LPAGE_BAND)' $(BINLOG_FLOORS) -in bench.out

bench-baseline: bench-run
	$(GO) run ./ci/benchjson -gate -baseline ci/bench-baseline.json -update-baseline -in bench.out

# Statistical before/after comparison (not part of ci): rerun the smoke
# benchmarks with repeats and print a benchstat-style table against the
# checked-in baseline — per-metric means, delta, and Mann–Whitney U
# p-values. Deltas are only asserted at p ≤ 0.05; rows with too few
# samples on either side show ~ with p=n/a. Typical use when touching a
# hot path: `make bench-baseline COUNT=8` on the old code, then
# `make bench-compare` on the new code and read the table.
bench-compare:
	$(MAKE) bench-run COUNT=8
	$(GO) run ./ci/benchjson -compare -baseline ci/bench-baseline.json -in bench.out

bench-full:
	$(GO) test -bench=. -benchmem -run=^$$ .
