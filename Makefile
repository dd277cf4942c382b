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

.PHONY: ci build vet fmt-check test test-race bench-test coverage-gate fuzz loc test-times

ci: build vet fmt-check test-race bench-test coverage-gate

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

# Open-ended fuzzing session for the trace parsers, the binlog reader and
# seek reader, the binlog request-trace decoder and the FTL snapshot restore
# (not part of ci; ci runs their committed seed corpora). -fuzz takes a
# regexp, so each name is anchored.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMSR$$' -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime 30s ./internal/telemetry/binlog/
	$(GO) test -run '^$$' -fuzz '^FuzzSeekReader$$' -fuzztime 30s ./internal/telemetry/binlog/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequests$$' -fuzztime 30s ./internal/telemetry/binlog/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 30s ./internal/ftl/

# Non-test Go lines per package, for the main module and for the nested
# bench/ module, each with its total: the net-LOC figure a change reports.
loc:
	@for m in . bench; do \
		(cd $$m && $(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./...) | \
		while read -r pkg files; do \
			[ -n "$$files" ] && printf '%6d  %s\n' "$$(cat $$files | wc -l)" "$$pkg"; \
		done | awk -v m="$$m" '{ print; t += $$1 } END { printf "%6d  total (%s)\n", t, m == "." ? "main module" : m "/" }'; \
	done

# The 20 slowest tests of one uncached run of the suite, with package and
# seconds, slowest first (subtests included): the per-test time table a
# change to the tests reports. Needs jq.
test-times:
	@$(GO) test -count=1 -json ./... | \
		jq -r 'select(.Action == "pass" or .Action == "fail") | select(.Test != null) | [.Elapsed, .Package, .Test] | @tsv' | \
		sort -rn | head -20 | awk -F'\t' '{ printf "%7.2f  %-40s %s\n", $$1, $$2, $$3 }'
