GO       ?= go
FUZZTIME ?= 30s
# Every generated smoke/bench byproduct lands under $(ARTIFACTS) (ignored
# by git) instead of littering the repo root. Committed perf artifacts
# (BENCH_*.json) are the exception: they are the deliverable, not litter.
ARTIFACTS ?= artifacts

.PHONY: all build test race vet lint bench-alloc bench-harness bench-swarm fuzz-smoke bench-json trace-smoke fault-smoke burst-smoke adversary-smoke metrics-smoke timeseries-smoke

all: build vet lint test

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

# splicelint: the repo's own static-analysis suite (internal/analysis),
# with the full analyzer set, dead-suppression reporting, and a JSON
# findings artifact for CI. Exits non-zero on any unsuppressed finding.
lint: | $(ARTIFACTS)
	$(GO) run ./cmd/splicelint -deadignores -json ./... > $(ARTIFACTS)/splicelint.json || \
		{ cat $(ARTIFACTS)/splicelint.json; exit 1; }
	$(GO) run ./cmd/splicelint -deadignores ./...

# bench-alloc: run the //lint:hotpath benchmarks with -benchmem and fail
# on any nonzero allocs/op — the runtime half of the allocfree analyzer's
# static contract. Not run under -race (instrumentation allocates).
bench-alloc: | $(ARTIFACTS)
	$(GO) test -run='^$$' -bench='^BenchmarkHotpath' -benchmem \
		./internal/wire ./internal/trace ./internal/sim ./internal/netem ./internal/simpeer > $(ARTIFACTS)/bench-alloc.txt || \
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

# bench-swarm: regenerate the swarm-scale emulation perf artifact —
# 10k-peer incremental run vs the forced-full recompute baseline on the
# identical (digest-checked) workload, plus the harness's
# self-observation section (traced overhead gate, CPU profile top
# functions). One benchmark pass first as a smoke check that the
# measured configuration still runs.
bench-swarm:
	$(GO) test -run='^$$' -bench='^BenchmarkSwarmEmulation10k$$' -benchtime=1x .
	$(GO) run ./cmd/benchswarm -out BENCH_10.json

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
# traces. Then the swarm-scale self-observation gate: a 10k-peer
# benchswarm run with telemetry + sampled tracing attached must keep
# the untraced digest and stay within the 5% overhead budget (gated
# inside cmd/benchswarm).
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
	$(GO) run ./cmd/benchswarm -baseline-events 20000 -out $(ARTIFACTS)/bench-swarm-observed.json
	@echo "timeseries-smoke: CSV byte-identical across runs and workers, overhead within budget"

# metrics-smoke: launch the quickstart real-TCP swarm with -debug-addr,
# wait for /healthz, and validate the /metrics Prometheus exposition
# (parses + key QoE/transport series present) via `splicetrace scrape`.
metrics-smoke:
	GO="$(GO)" sh scripts/metrics-smoke.sh

# fault-smoke: the churn figure (seeded fault injection) must be
# bit-reproducible. Run the quick-scale sweep twice at workers=1 and
# byte-compare the JSON; then once at workers=4 and compare again with
# the legitimately varying fields (elapsed_ms, workers) stripped.
fault-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure churn -json -workers 1 > $(ARTIFACTS)/fault-smoke-a.json
	$(GO) run ./cmd/experiment -quick -figure churn -json -workers 1 > $(ARTIFACTS)/fault-smoke-b.json
	grep -v '"elapsed_ms"' $(ARTIFACTS)/fault-smoke-a.json > $(ARTIFACTS)/fault-smoke-a.stripped
	grep -v '"elapsed_ms"' $(ARTIFACTS)/fault-smoke-b.json > $(ARTIFACTS)/fault-smoke-b.stripped
	cmp $(ARTIFACTS)/fault-smoke-a.stripped $(ARTIFACTS)/fault-smoke-b.stripped
	$(GO) run ./cmd/experiment -quick -figure churn -json -workers 4 > $(ARTIFACTS)/fault-smoke-c.json
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/fault-smoke-a.json > $(ARTIFACTS)/fault-smoke-aw.stripped
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/fault-smoke-c.json > $(ARTIFACTS)/fault-smoke-cw.stripped
	cmp $(ARTIFACTS)/fault-smoke-aw.stripped $(ARTIFACTS)/fault-smoke-cw.stripped
	@echo "fault-smoke: churn figure bit-identical across runs and workers"

# burst-smoke: the correlated-impairment figure (Gilbert–Elliott burst
# loss + segment corruption) must be bit-reproducible — the GE chains
# draw sojourns from each run's own engine RNG and the corruption draws
# are pure hashes, so nothing may vary across runs or worker counts.
# Then regenerate it with per-cell traces and require 100% stall
# attribution: every stall under the impairment plans carries a cause.
burst-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure burst -json -workers 1 > $(ARTIFACTS)/burst-smoke-a.json
	$(GO) run ./cmd/experiment -quick -figure burst -json -workers 1 > $(ARTIFACTS)/burst-smoke-b.json
	grep -v '"elapsed_ms"' $(ARTIFACTS)/burst-smoke-a.json > $(ARTIFACTS)/burst-smoke-a.stripped
	grep -v '"elapsed_ms"' $(ARTIFACTS)/burst-smoke-b.json > $(ARTIFACTS)/burst-smoke-b.stripped
	cmp $(ARTIFACTS)/burst-smoke-a.stripped $(ARTIFACTS)/burst-smoke-b.stripped
	$(GO) run ./cmd/experiment -quick -figure burst -json -workers 4 > $(ARTIFACTS)/burst-smoke-c.json
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/burst-smoke-a.json > $(ARTIFACTS)/burst-smoke-aw.stripped
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/burst-smoke-c.json > $(ARTIFACTS)/burst-smoke-cw.stripped
	cmp $(ARTIFACTS)/burst-smoke-aw.stripped $(ARTIFACTS)/burst-smoke-cw.stripped
	$(GO) run ./cmd/experiment -quick -figure burst -trace $(ARTIFACTS)/burst-trace-quick > /dev/null
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/burst-trace-quick -require-attributed > $(ARTIFACTS)/burst-trace-report.txt
	@echo "burst-smoke: burst figure bit-identical across runs and workers, stalls fully attributed"

# adversary-smoke: the adversarial-peer figure (polluter fractions ×
# reputation on/off) must be bit-reproducible — pollution decisions are
# pure hashes of each cell's seed and the reputation tables are
# per-swarm state, so nothing may vary across runs or worker counts.
# Then regenerate it with per-cell traces and require 100% stall
# attribution: every stall under pollution and quarantine carries a
# cause (peer_quarantined included).
adversary-smoke: | $(ARTIFACTS)
	$(GO) run ./cmd/experiment -quick -figure adversary -json -workers 1 > $(ARTIFACTS)/adversary-smoke-a.json
	$(GO) run ./cmd/experiment -quick -figure adversary -json -workers 1 > $(ARTIFACTS)/adversary-smoke-b.json
	grep -v '"elapsed_ms"' $(ARTIFACTS)/adversary-smoke-a.json > $(ARTIFACTS)/adversary-smoke-a.stripped
	grep -v '"elapsed_ms"' $(ARTIFACTS)/adversary-smoke-b.json > $(ARTIFACTS)/adversary-smoke-b.stripped
	cmp $(ARTIFACTS)/adversary-smoke-a.stripped $(ARTIFACTS)/adversary-smoke-b.stripped
	$(GO) run ./cmd/experiment -quick -figure adversary -json -workers 4 > $(ARTIFACTS)/adversary-smoke-c.json
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/adversary-smoke-a.json > $(ARTIFACTS)/adversary-smoke-aw.stripped
	grep -v '"elapsed_ms"\|"workers"' $(ARTIFACTS)/adversary-smoke-c.json > $(ARTIFACTS)/adversary-smoke-cw.stripped
	cmp $(ARTIFACTS)/adversary-smoke-aw.stripped $(ARTIFACTS)/adversary-smoke-cw.stripped
	$(GO) run ./cmd/experiment -quick -figure adversary -trace $(ARTIFACTS)/adversary-trace-quick > /dev/null
	$(GO) run ./cmd/splicetrace report $(ARTIFACTS)/adversary-trace-quick -require-attributed > $(ARTIFACTS)/adversary-trace-report.txt
	@grep -q "penalized peer" $(ARTIFACTS)/adversary-trace-report.txt || \
		{ echo "adversary-smoke: report missing the reputation rollup"; exit 1; }
	@echo "adversary-smoke: adversary figure bit-identical across runs and workers, stalls fully attributed"

# Short fuzz pass over every fuzz target; go's fuzzer accepts one -fuzz
# pattern per package invocation, so targets run sequentially.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzRead$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzReadHandshake$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/container
	$(GO) test -run='^$$' -fuzz='^FuzzReadManifest$$' -fuzztime=$(FUZZTIME) ./internal/container
	$(GO) test -run='^$$' -fuzz='^FuzzReadJSON$$' -fuzztime=$(FUZZTIME) ./internal/topology
	$(GO) test -run='^$$' -fuzz='^FuzzReallocate$$' -fuzztime=$(FUZZTIME) ./internal/netem
	$(GO) test -run='^$$' -fuzz='^FuzzPromRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/trace
