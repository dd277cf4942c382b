# Development targets for the jitgc reproduction.
#
# `make ci` is the gate every change must pass: it builds everything, vets
# it, checks gofmt, and runs the full test suite under the race detector —
# the experiment grids execute simulation cells concurrently
# (Options.Workers) and tenant.New synthesizes its tenants on every core, so
# race-cleanliness is a correctness requirement, not a style preference. The
# worker pool's tests run again at -cpu 1,2,4.
# That run includes the committed fuzz seed corpora and the fault, array and
# multi-tenant sweeps. It also tests the nested bench/ module and fails if
# statement coverage of internal/... drops below the recorded baseline.

GO ?= go
COVERAGE_BASELINE := $(shell cat ci/coverage-baseline.txt)

.PHONY: ci build vet fmt-check test test-race bench-test coverage-gate fuzz loc loc-diff bench-diff paperbench-diff test-times test-cpu

ci: build vet fmt-check test-race test-cpu bench-test coverage-gate

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

# The deterministic worker pool's tests at GOMAXPROCS 1, 2 and 4 (about a
# second): parallel.Run must give the serial result under any schedule, so a
# result that depends on scheduling fails here even on a 2-core box. The
# tenant determinism test is not rerun here: it sets GOMAXPROCS 1, 2 and 8
# itself, which -cpu would only overwrite.
test-cpu:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/parallel

# The benchmark harness under bench/ is a nested module (its own go.mod), so
# ./... above never reaches it; its tests check the harness against the
# simulator's public API, including that the stepped driver reproduces
# RunClosedLoop. vet above stops at the module boundary too.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fail if total statement coverage of internal/... falls below the
# baseline recorded in ci/coverage-baseline.txt. Raise the baseline when
# coverage improves; never lower it to make a red build green.
coverage-gate:
	$(GO) test -count=1 -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$NF); print $$NF}'); \
	echo "internal/... coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { exit (t+0 >= b+0) ? 0 : 1 }' || \
		{ echo "coverage $$total% below baseline $(COVERAGE_BASELINE)%"; exit 1; }

# Open-ended fuzzing session for the trace parsers, the binlog reader, the
# binlog footer index walk (FuzzReadIndex) and the binlog
# request-trace decoder (not part of ci; ci runs their committed seed
# corpora). -fuzz takes a regexp, so each name is anchored.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMSR$$' -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 30s ./internal/telemetry/binlog/
	$(GO) test -run '^$$' -fuzz '^FuzzReadIndex$$' -fuzztime 30s ./internal/telemetry/binlog/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequests$$' -fuzztime 30s ./internal/telemetry/binlog/

# Non-test Go lines per package, for the main module and for the nested
# bench/ module, each with its total, then the line counts of the three
# top-level docs with theirs: the net-LOC figure a change reports.
DOCS := README.md DESIGN.md EXPERIMENTS.md
loc:
	@for m in . bench; do \
		(cd $$m && $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./...) | \
		while read -r pkg files; do \
			[ -n "$$files" ] && printf '%6d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
		done | awk -v m="$$m" '{ print; t += $$1 } END { printf "%6d  total (%s)\n", t, m == "." ? "main module" : m "/" }'; \
	done
	@for f in $(DOCS); do printf '%6d  %s\n' "$$(wc -l < $$f)" "$$f"; done | \
		awk '{ print; t += $$1 } END { printf "%6d  total (docs)\n", t }'

# The loc table at REV beside the working tree's, one row per package or
# doc with the lines before, after and the delta, and each block's total: the
# net-LOC table a change reports. REV is anything git archive takes, e.g.
# `make loc-diff REV=HEAD~1`; the counting is this Makefile's loc target on
# both trees, so REV need not have one.
loc-diff:
	@[ -n "$(REV)" ] || { echo "usage: make loc-diff REV=<rev>"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/tree" && git archive "$(REV)" | tar -x -C "$$tmp/tree" && \
	$(MAKE) -s --no-print-directory -C "$$tmp/tree" -f "$(abspath $(firstword $(MAKEFILE_LIST)))" loc > "$$tmp/before" && \
	$(MAKE) -s --no-print-directory loc > "$$tmp/after" && \
	awk -v rev="$(REV)" ' \
		{ n = $$1; sub(/^ *[0-9]+  /, "") } \
		NR == FNR { before[$$0] = n; bseg[$$0] = seg; order[++nb] = $$0; if (/^total/) seg++; next } \
		FNR == 1 { seg = 0; printf "%7s %7s %7s  %s\n", rev, "now", "delta", "package" } \
		/^total/ { for (i = 1; i <= nb; i++) { k = order[i]; if (bseg[k] == seg && !(k in after) && k !~ /^total/) row(k, before[k], 0) } seg++ } \
		{ after[$$0] = n; row($$0, $$0 in before ? before[$$0] : 0, n) } \
		function row(k, b, a) { printf "%7d %7d %+7d  %s\n", b, a, a - b, k } \
	' "$$tmp/before" "$$tmp/after"

# The micro-benchmarks BENCH of package PKG at REV (git archive into a temp
# dir) beside the working tree's: N rounds (default 5) per side, the side
# that runs first alternating by round, then one row per sub-benchmark with
# each side's median ns/op and their ratio (now/REV); "-" marks a
# sub-benchmark one side lacks. Each benchmark of BENCH runs in its own test
# process, both sides of it before the next, so one benchmark's state never
# shares a heap with another's timings. PKG defaults to internal/ftl, whose
# BENCH defaults to BenchmarkVictimSelect and BenchmarkSteadyStateWrite, at
# -benchtime 20000x; any other PKG needs BENCH and runs at -benchtime 1s. In
# internal/ftl the sub-benchmarks FTL_SLOW matches (a -test.bench pattern
# below the benchmark's name) cost milliseconds per op, so they run at
# FTL_SLOW_COUNT instead, in a second process per side. Not part of ci: these
# benchmarks have no baseline to gate on, and their timings vary from run to
# run.
N ?= 5
PKG ?= internal/ftl
ftl_pkg = $(filter internal/ftl,$(PKG))
BENCH ?= $(if $(ftl_pkg),BenchmarkVictimSelect BenchmarkSteadyStateWrite)
benchtime = $(if $(ftl_pkg),20000x,1s)
FTL_SLOW := /^sipgreedy-tainted$$/^blocks=(32768|131072)$$
FTL_SLOW_COUNT := 1000x
bench-diff:
	@[ -n "$(REV)" ] && [ -n "$(BENCH)" ] || { echo "usage: make bench-diff REV=<rev> [PKG=internal/ftl] [BENCH=<names>] [N=5] (BENCH is required outside internal/ftl)"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/tree" && git archive "$(REV)" | tar -x -C "$$tmp/tree" && \
	(cd "$$tmp/tree" && $(GO) test -c -o "$$tmp/rev.test" ./$(PKG)) && \
	$(GO) test -c -o "$$tmp/now.test" ./$(PKG) && \
	for i in $$(seq $(N)); do \
		sides="now rev"; [ $$((i % 2)) -eq 0 ] && sides="rev now"; \
		for bench in $(BENCH); do \
			for side in $$sides; do \
				dir=$(PKG); [ $$side = rev ] && dir="$$tmp/tree/$(PKG)"; \
				(cd "$$dir" && "$$tmp/$$side.test" -test.run '^$$' -test.bench "^$$bench\$$" \
					$(if $(ftl_pkg),-test.skip '$(FTL_SLOW)') -test.benchtime $(benchtime) -test.timeout 10m \
				$(if $(ftl_pkg),&& "$$tmp/$$side.test" -test.run '^$$' -test.bench "^$$bench\$$$(FTL_SLOW)" \
					-test.benchtime $(FTL_SLOW_COUNT) -test.timeout 10m)) > "$$tmp/out" || { cat "$$tmp/out"; exit 1; }; \
				awk -v side=$$side '/^Benchmark/ { print side, $$1, $$3 }' "$$tmp/out" >> "$$tmp/results"; \
			done; \
		done; \
	done && \
	awk -v rev="$(REV)" -v rounds=$(N) ' \
		function med(s, k,   m, i, j, a, t) { \
			m = n[s, k]; if (!m) return "-"; \
			for (i = 1; i <= m; i++) { t = v[s, k, i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } \
			return m % 2 ? a[(m + 1) / 2] : (a[m / 2] + a[m / 2 + 1]) / 2 } \
		{ v[$$1, $$2, ++n[$$1, $$2]] = $$3; if (!($$2 in seen)) { seen[$$2] = 1; order[++nk] = $$2 } } \
		END { \
			printf "%-52s %12s %12s %7s\n", "ns/op (median of " rounds " runs)", rev, "now", "ratio"; \
			for (i = 1; i <= nk; i++) { k = order[i]; b = med("rev", k); a = med("now", k); \
				printf "%-52s %12s %12s %7s\n", k, b, a, (b == "-" || a == "-") ? "-" : sprintf("%.2f", a / b) } } \
	' "$$tmp/results"

# paperbench's output at REV (git archive into a temp dir) beside the
# working tree's, as `diff -u`, whose exit status the target returns: the
# equal-output check of a change that should not move a table. EXP is the
# -exp list; OPS (paperbench's default when unset) and WORKERS (default 2)
# are passed to both sides. The `(N.Ns)` timing is cut from each `===`
# header, and each side's exit status is appended to its output, so a run
# that exits 1 on table warnings is still compared. Not part of ci.
WORKERS ?= 2
paperbench-diff:
	@[ -n "$(REV)" ] && [ -n "$(EXP)" ] || { echo "usage: make paperbench-diff REV=<rev> EXP=<ids> [OPS=N] [WORKERS=2]"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/tree" && git archive "$(REV)" | tar -x -C "$$tmp/tree" && \
	(cd "$$tmp/tree" && $(GO) build -o "$$tmp/rev" ./cmd/paperbench) && \
	$(GO) build -o "$$tmp/now" ./cmd/paperbench && \
	for side in rev now; do \
		st=0; "$$tmp/$$side" -exp "$(EXP)" -workers $(WORKERS) $(if $(OPS),-ops $(OPS)) > "$$tmp/$$side.out" 2>&1 || st=$$?; \
		[ $$st -le 1 ] || { cat "$$tmp/$$side.out"; exit $$st; }; \
		{ sed -E '/^=== /s/ \([0-9.]+s\)$$//' "$$tmp/$$side.out"; echo "exit status $$st"; } > "$$tmp/$$side.txt"; \
	done && \
	diff -u --label "paperbench@$(REV)" --label "paperbench (working tree)" "$$tmp/rev.txt" "$$tmp/now.txt"

# The 20 slowest tests of one uncached run of the suite, with package and
# seconds, slowest first (subtests included): the per-test time table a
# change to the tests reports. Needs jq.
test-times:
	@$(GO) test -count=1 -json ./... | \
		jq -r 'select(.Action == "pass" or .Action == "fail") | select(.Test != null) | [.Elapsed, .Package, .Test] | @tsv' | \
		sort -rn | head -20 | awk -F'\t' '{ printf "%7.2f  %-40s %s\n", $$1, $$2, $$3 }'
