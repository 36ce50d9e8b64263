GO       ?= go
FUZZTIME ?= 30s
# Every generated smoke/bench byproduct lands under $(ARTIFACTS) (ignored
# by git) instead of littering the repo root.
ARTIFACTS ?= artifacts

.PHONY: all build test race vet fmt-check lint lint-audit loc reach identity bench-ab profile-figures profile-stream bench-alloc bench-harness fuzz-smoke bench-json trace-smoke fault-smoke burst-smoke adversary-smoke metrics-smoke timeseries-smoke

all: build vet fmt-check lint test

$(ARTIFACTS):
	@mkdir -p $(ARTIFACTS)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check: gofmt over every Go file of the root module and of cmd/bench
# (a module of its own, but gofmt walks directories, not modules).
fmt-check:
	@out="$$(gofmt -l *.go cmd examples internal)"; \
		if [ -n "$$out" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$out"; exit 1; fi

# splicelint: the repo's own static-analysis suite (internal/analysis),
# with the full analyzer set, dead-suppression reporting, and a JSON
# findings artifact for CI. Exits non-zero on any unsuppressed finding.
lint: | $(ARTIFACTS)
	$(GO) run ./cmd/splicelint -deadignores -json ./... > $(ARTIFACTS)/splicelint.json || \
		{ $(GO) run ./cmd/splicelint -deadignores ./...; exit 1; }

# lint-audit: splicelint's findings with every suppression outside
# internal/analysis stripped, on a temp copy of the working tree, written
# to $(ARTIFACTS)/lint-audit.json with one "analyzer count" line each. Not
# a gate; it measures what the tree's //lint:ignore lines silence.
lint-audit: | $(ARTIFACTS)
	GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/lint-audit.sh

# loc: the size ledger — non-blank Go lines per package, non-test and
# test; with PARENT=<rev>, each package's parent and change counts and
# their delta. A PR that deletes code quotes its before/after rows in
# CHANGES.md.
loc: | $(ARTIFACTS)
	sh scripts/loc.sh $(PARENT) > $(ARTIFACTS)/loc.txt
	@if [ -n "$(PARENT)" ]; then cat $(ARTIFACTS)/loc.txt; else tail -n 2 $(ARTIFACTS)/loc.txt; fi

# reach: the reachability ledger — root-module functions that no program
# (main packages plus cmd/bench) links and only tests reach, with the rows
# scripts/reach-keep.txt keeps by design marked. Open rows are not a gate
# (a deletion PR quotes its before/after counts), but a keep entry the
# ledger no longer lists fails the target.
reach: | $(ARTIFACTS)
	GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/reach.sh > $(ARTIFACTS)/reach.txt
	@tail -n 1 $(ARTIFACTS)/reach.txt

# identity: the bit-identity gate for a change that must not move the
# emulation — build PARENT and the working tree, run the fixed artifact
# set on both (scripts/identity.sh lists it), print "identical" or every
# differing file with its first differing line, then how many differ.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>"; exit 2; }
	GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/identity.sh "$(PARENT)"

# bench-ab: a perf claim's alternating pairs — PAIRS untraced passes of
# WORKLOAD on PARENT and on the working tree, alternating which goes first,
# each pair judged by -compare, then the paired verdict on wall_s
# (scripts/bench-verdict.awk, which also reads recorded pairs). Takes
# minutes; not a CI step. One recipe, scripts/bench-ab.sh.
PAIRS ?= 10
SEED  ?= 1
bench-ab: | $(ARTIFACTS)
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab PARENT=<rev> WORKLOAD=<w> [PAIRS=10] [SEED=1]"; exit 2; }
	ARTIFACTS="$(ARTIFACTS)" sh scripts/bench-ab.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)"

# profile-figures: where one default-scale regeneration of the paper set
# spends its CPU — BenchmarkPaperFiguresSerial once, on one worker, under
# -cpuprofile ($(ARTIFACTS)/figures.cpu.pprof), then pprof's top 25
# functions. Re-profile with it before choosing a perf change; not a CI step.
profile-figures: | $(ARTIFACTS)
	$(GO) test -run='^$$' -bench='^BenchmarkPaperFiguresSerial$$' -benchtime=1x \
		-cpuprofile $(ARTIFACTS)/figures.cpu.pprof -o $(ARTIFACTS)/p2psplice.test .
	$(GO) tool pprof -top -nodecount=25 $(ARTIFACTS)/figures.cpu.pprof

# profile-stream: where the real stack spends its CPU streaming a clip —
# BenchmarkStreamLoopback (a 120 s clip at 1 MiB/s to two viewers over
# loopback TCP) ten times under -cpuprofile
# ($(ARTIFACTS)/stream.cpu.pprof), then pprof's top 25 functions and the
# callers and callees of the byte path's hashes, copies and clears, so
# each shows by the code that pays for it. Not a CI step.
profile-stream: | $(ARTIFACTS)
	$(GO) test -run='^$$' -bench='^BenchmarkStreamLoopback$$' -benchtime=10x \
		-cpuprofile $(ARTIFACTS)/stream.cpu.pprof -o $(ARTIFACTS)/p2psplice.test .
	$(GO) tool pprof -top -nodecount=25 $(ARTIFACTS)/stream.cpu.pprof
	$(GO) tool pprof -peek='sha256.Sum256|runtime.memmove|memclrNoHeapPointers' $(ARTIFACTS)/stream.cpu.pprof

# bench-alloc: the //lint:hotpath contract, measured. The BenchmarkHotpath*
# benchmarks must report 0 allocs/op and the zero-alloc tests (which
# `make race` never runs) must pass; then a coverage run of the same gates
# fails on any //lint:hotpath function that none of them executes. One
# recipe, scripts/bench-alloc.sh.
bench-alloc: | $(ARTIFACTS)
	GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/bench-alloc.sh

# bench-harness: cmd/bench is a module of its own (see its README), so
# the root build/vet/test targets never see it. Its tests include a -smoke
# pass of every workload, which checks the pinned smoke-scale digests and
# simpeer counts in cmd/bench/expected.json.
bench-harness:
	$(GO) vet -C cmd/bench ./...
	$(GO) test -C cmd/bench ./...

# bench-json: quick-scale figure regeneration as a machine-readable
# artifact (the bench trajectory's stable format), plus one pass of the
# quick figure benches as a smoke check.
bench-json: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -json > $(ARTIFACTS)/experiment-quick.json
	$(GO) test -run='^$$' -bench='^BenchmarkFig' -benchtime=1x .

# trace-smoke, timeseries-smoke: the splicetrace analyzer and the windowed
# virtual-time telemetry end to end, over the per-cell JSONL traces of
# quick Figure 2: 100% stall attribution, a byte-identical view across
# repeated runs — and, for the time-series CSV, across worker counts — and
# a report.json that reproduces exactly the aggregate cmd/experiment wrote. One recipe, scripts/trace-smoke.sh; the
# rows below are <view> <machine flag> <output stem> <text output>
# <reference in the first trace dir, or -> <trace dir>[:<workers>]...
TRACE_SMOKE = GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/trace-smoke.sh

trace-smoke:
	$(TRACE_SMOKE) report -json trace-report trace-report.txt report.json trace-quick

timeseries-smoke:
	$(TRACE_SMOKE) timeseries -csv timeseries timeseries-report.txt - ts-trace-w1:1 ts-trace-w4:4

# metrics-smoke: launch the quickstart real-TCP swarm with -debug-addr,
# wait for /healthz, and validate the /metrics Prometheus exposition
# (parses + key QoE/transport series present) via `splicetrace scrape`.
metrics-smoke:
	GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/metrics-smoke.sh

# fault-smoke, burst-smoke, adversary-smoke: the extension figures (churn:
# seeded fault injection; burst: Gilbert–Elliott burst loss + segment
# corruption; adversary: polluter fractions × reputation on/off) must be
# bit-reproducible across runs and worker counts — every fault plan, GE
# sojourn and pollution draw derives from its own cell's seed. The traced
# ones must also attribute every stall, and the adversary report must
# carry the reputation rollup. One recipe, scripts/figure-smoke.sh; the
# rows below are <figure> <artifact prefix> [attributed [report-must-contain]].
FIGURE_SMOKE = GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/figure-smoke.sh

fault-smoke:
	$(FIGURE_SMOKE) churn fault

burst-smoke:
	$(FIGURE_SMOKE) burst burst attributed

adversary-smoke:
	$(FIGURE_SMOKE) adversary adversary attributed "penalized peer"

# Short fuzz pass over every fuzz target (Target:./pkg pairs); go's
# fuzzer accepts one -fuzz pattern per package invocation, so targets run
# sequentially, and the first failing one fails the pass. Minimizing each
# new interesting input may take 60 s by default, which would spend a
# short pass minimizing instead of fuzzing; 1 s bounds it.
FUZZ_TARGETS = \
	FuzzRead:./internal/wire \
	FuzzReadHandshake:./internal/wire \
	FuzzDecode:./internal/container \
	FuzzReadManifest:./internal/container \
	FuzzPlan:./internal/fault \
	FuzzReallocate:./internal/netem \
	FuzzQueue:./internal/sim \
	FuzzPromRoundTrip:./internal/trace \
	FuzzDownloads:./internal/core

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		( set -x; $(GO) test -run='^$$' -fuzz="^$${t%%:*}\$$" -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s "$${t#*:}" ); \
	done
