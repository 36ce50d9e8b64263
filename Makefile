GO       ?= go
FUZZTIME ?= 30s
# Every generated smoke/bench byproduct lands under $(ARTIFACTS) (ignored
# by git) instead of littering the repo root.
ARTIFACTS ?= artifacts

.PHONY: all build test race vet fmt-check lint loc identity bench-alloc bench-harness fuzz-smoke bench-json trace-smoke fault-smoke burst-smoke adversary-smoke metrics-smoke timeseries-smoke

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
		{ cat $(ARTIFACTS)/splicelint.json; exit 1; }
	$(GO) run ./cmd/splicelint -deadignores ./...

# loc: the size ledger — non-blank Go lines per package, non-test and
# test. A PR that deletes code quotes its before/after rows in CHANGES.md.
loc: | $(ARTIFACTS)
	sh scripts/loc.sh > $(ARTIFACTS)/loc.txt
	@tail -n 2 $(ARTIFACTS)/loc.txt

# identity: the bit-identity gate for a change that must not move the
# emulation — build PARENT and the working tree, run the fixed artifact
# set on both (scripts/identity.sh lists it), print "identical" or the
# first differing file and line.
identity:
	@test -n "$(PARENT)" || { echo "usage: make identity PARENT=<rev>"; exit 2; }
	GO="$(GO)" ARTIFACTS="$(ARTIFACTS)" sh scripts/identity.sh "$(PARENT)"

# bench-alloc: run the //lint:hotpath benchmarks with -benchmem and fail
# on any nonzero allocs/op — the runtime half of the allocfree analyzer's
# static contract. Not run under -race (instrumentation allocates).
bench-alloc: | $(ARTIFACTS)
	$(GO) test -run='^$$' -bench='^BenchmarkHotpath' -benchmem \
		./internal/wire ./internal/trace ./internal/sim ./internal/netem ./internal/core ./internal/simpeer > $(ARTIFACTS)/bench-alloc.txt || \
		{ cat $(ARTIFACTS)/bench-alloc.txt; exit 1; }
	@cat $(ARTIFACTS)/bench-alloc.txt
	@awk '/^BenchmarkHotpath/ { seen++; if ($$(NF-1) != 0) { print "bench-alloc: " $$1 " allocates " $$(NF-1) " allocs/op, want 0"; bad = 1 } } \
		END { if (!seen) { print "bench-alloc: no hotpath benchmarks ran"; exit 1 }; if (bad) exit 1; print "bench-alloc: " seen " hotpath benchmarks at 0 allocs/op" }' $(ARTIFACTS)/bench-alloc.txt

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

# trace-smoke: regenerate Figure 2 at quick scale with per-cell trace
# artifacts (JSONL + Chrome trace + stall timeline) into the artifacts
# dir, then prove the splicetrace analyzer over them: 100% stall
# attribution and a byte-identical report across repeated runs.
# report.json is the aggregate cmd/experiment wrote; splicetrace must
# reproduce it exactly. Figure values are bit-identical with tracing on
# or off (DESIGN.md §8).
trace-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure 2 -trace $(ARTIFACTS)/trace-quick > /dev/null
	@ls $(ARTIFACTS)/trace-quick | head -6
	@echo "trace-smoke: $$(ls $(ARTIFACTS)/trace-quick | wc -l) artifacts in $(ARTIFACTS)/trace-quick/"
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/trace-quick -require-attributed > $(ARTIFACTS)/trace-report.txt
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/trace-quick -json -o $(ARTIFACTS)/trace-report-a.json
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/trace-quick -json -o $(ARTIFACTS)/trace-report-b.json
	cmp $(ARTIFACTS)/trace-report-a.json $(ARTIFACTS)/trace-report-b.json
	cmp $(ARTIFACTS)/trace-report-a.json $(ARTIFACTS)/trace-quick/report.json
	@echo "trace-smoke: splicetrace report fully attributed and byte-stable"

# timeseries-smoke: the windowed virtual-time telemetry end to end.
# Regenerates quick Figure 2 traces at two worker counts, rebuilds the
# time-series CSV from each, and requires byte-identity — the windowing
# is commutative integer aggregation, so neither reruns nor parallelism
# may move a single byte. Stall attribution must stay total on the same
# traces.
timeseries-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure 2 -trace $(ARTIFACTS)/ts-trace-w1 -workers 1 > /dev/null
	$(GO) run ./cmd/experiment -quick -figure 2 -trace $(ARTIFACTS)/ts-trace-w4 -workers 4 > /dev/null
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/ts-trace-w1 -require-attributed > /dev/null
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w1 -csv -o $(ARTIFACTS)/timeseries-a.csv
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w1 -csv -o $(ARTIFACTS)/timeseries-b.csv
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w4 -csv -o $(ARTIFACTS)/timeseries-w4.csv
	cmp $(ARTIFACTS)/timeseries-a.csv $(ARTIFACTS)/timeseries-b.csv
	cmp $(ARTIFACTS)/timeseries-a.csv $(ARTIFACTS)/timeseries-w4.csv
	$(GO) run ./cmd/splicetrace timeseries $(ARTIFACTS)/ts-trace-w1 -o $(ARTIFACTS)/timeseries-report.txt
	@echo "timeseries-smoke: CSV byte-identical across runs and workers"

# metrics-smoke: launch the quickstart real-TCP swarm with -debug-addr,
# wait for /healthz, and validate the /metrics Prometheus exposition
# (parses + key QoE/transport series present) via `splicetrace scrape`.
metrics-smoke:
	GO="$(GO)" sh scripts/metrics-smoke.sh

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
# sequentially, and the first failing one fails the pass.
FUZZ_TARGETS = \
	FuzzRead:./internal/wire \
	FuzzReadHandshake:./internal/wire \
	FuzzDecode:./internal/container \
	FuzzReadManifest:./internal/container \
	FuzzReadJSON:./internal/topology \
	FuzzPlan:./internal/fault \
	FuzzReallocate:./internal/netem \
	FuzzPromRoundTrip:./internal/trace

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		( set -x; $(GO) test -run='^$$' -fuzz="^$${t%%:*}\$$" -fuzztime=$(FUZZTIME) "$${t#*:}" ); \
	done
