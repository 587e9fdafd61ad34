# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test bench-selftest figures results-check examples clean check cache-smoke bench-smoke fleet-smoke fleet-chaos trace-smoke jobs-smoke chaos api-smoke fuzz fuzz-smoke cover

all: build test

# Full pre-merge gate: gofmt-clean sources + vet (of the root module and of
# the phastbench module, which has its own go.mod) + build + race-enabled tests
# (the one-batch figure tests three more times, to shake out ordering races
# in the batch slicing, and the shared single-flight memo ten more) + the
# fault-injection suite under -race + 10 seconds each of the two pipeline
# fuzz targets + a cached-vs-uncached paperfigs
# smoke proving the persistent run cache reproduces byte-identical tables
# with zero re-simulations, one iteration of every per-layer benchmark, the
# phastbench self-test, and the full-suite results regenerated and compared
# byte for byte against results/paperfigs_full.txt. Counted work and output
# are gated exactly by the tests (TestWorkCounts, the row and table goldens)
# and by results-check; no step compares wall-clock time against a
# baseline.
check:
	test -z "$$(gofmt -l .)"
	go vet ./...
	cd phastbench && GOWORK=off go vet ./...
	go build ./...
	go test -race ./...
	go test -race -count=3 -run 'FigureTables|Batch' ./internal/experiments
	go test -race -count=10 ./internal/memo
	$(MAKE) chaos
	$(MAKE) fuzz-smoke
	$(MAKE) examples
	$(MAKE) api-smoke
	$(MAKE) cache-smoke
	$(MAKE) fleet-smoke
	$(MAKE) fleet-chaos
	$(MAKE) trace-smoke
	$(MAKE) jobs-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-selftest
	$(MAKE) results-check

# Fault-injection (chaos) suite: injected panics, stalls, disk-write failures
# and corrupt cache entries must all be contained — typed per-config errors,
# bit-identical survivors, no leaked goroutines — under the race detector.
chaos:
	go test -race -run 'Chaos' ./internal/...
	@echo "chaos ok: injected faults contained under -race"

# HTTP API smoke: spawn phastd's serving stack on a random port, run the same
# config over the wire and in-process, and require byte-identical rows.
api-smoke:
	go run ./examples/predictorapi
	@echo "api smoke ok: HTTP rows byte-identical to in-process runs"

SMOKEDIR := $(or $(TMPDIR),/tmp)/phast-cache-smoke
SMOKEFLAGS := -fig fig12 -apps 511.povray,519.lbm -n 30000 -cache $(SMOKEDIR)/cache -metrics

cache-smoke:
	rm -rf $(SMOKEDIR)
	mkdir -p $(SMOKEDIR)
	go run ./cmd/paperfigs $(SMOKEFLAGS) >$(SMOKEDIR)/first.txt 2>$(SMOKEDIR)/first.err
	go run ./cmd/paperfigs $(SMOKEFLAGS) >$(SMOKEDIR)/second.txt 2>$(SMOKEDIR)/second.err
	cmp $(SMOKEDIR)/first.txt $(SMOKEDIR)/second.txt
	grep -Eq '^runs.simulated +0 *$$' $(SMOKEDIR)/second.err
	@echo "cache smoke ok: byte-identical tables, zero re-simulations"

# Cluster smoke: a 3-node loopback fleet plus a 1-node baseline under a
# duplicate-heavy zipfian phastload scenario; asserts cluster-wide coalescing
# (fleet-wide simulations executed == unique configs) and leaves the
# 1-vs-3-node results.csv comparison table behind for inspection.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Self-healing smoke: kill -9 one member of a 3-node fleet mid-scenario and
# restart it seconds later; asserts zero client-visible failures, per-seed
# result digests byte-identical to a solo reference node, the failure
# detector's down/up transitions recorded, and cluster-wide simulations
# bounded (DESIGN.md §16).
fleet-chaos:
	sh scripts/fleet_chaos.sh

# Multi-tenant trace ingestion smoke: upload a trace to one fleet member and
# run it by digest round-robined across all members, byte-identical to a solo
# reference; saturate one node with a heavy and a light tenant concurrently
# and assert the light tenant lands within 2x of its fair share; check the
# typed 400/404/413/429 error taxonomy and the per-tenant results log over
# the wire (DESIGN.md §17).
trace-smoke:
	sh scripts/trace_smoke.sh

# Autotuner smoke: a 3-node fleet runs a successive-halving job over 12
# candidates; the controller node is kill -9'd mid-search and restarted —
# the job resumes from its checkpoint with zero repeat simulations, an
# idempotent resubmission leaves cluster-wide runs_simulated unchanged, and
# the winner's table is byte-identical to a solo paperfigs -config replay
# (DESIGN.md §18).
jobs-smoke:
	sh scripts/jobs_smoke.sh

build:
	go build ./...
	go vet ./...

test:
	go test ./...

# Quick sanity pass: every per-layer benchmark (cycle loop, cache
# hierarchy, predictor tables) must still run, one iteration each.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/... >/dev/null

# phastbench self-test: every workload once at the tiny size, traced and
# untraced, checking that the simulated rows match in-process references and
# that the printed metric names match BENCHMARK.json in both directions.
bench-selftest:
	bash phastbench/run.sh --selftest

# The full-suite paperfigs run behind the shipped results file; figures and
# results-check share it, so the two cannot drift apart.
FIGFLAGS := -fig all -n 300000

# Regenerate every figure and table into results/ (2 min 37 s with two
# workers on a 2-CPU Intel Xeon virtual machine). The shipped file is
# replaced only by a complete run: a failed one leaves it as it was.
figures:
	mkdir -p results
	tmp=$$(mktemp); go run ./cmd/paperfigs $(FIGFLAGS) >$$tmp && cp $$tmp results/paperfigs_full.txt; \
		st=$$?; rm -f $$tmp; exit $$st

# Regenerate the full suite into a temporary file and require it to match
# the shipped results byte for byte: a change that moves a shipped number
# must re-record the file (make figures) and say why.
results-check:
	tmp=$$(mktemp); go run ./cmd/paperfigs $(FIGFLAGS) >$$tmp && cmp $$tmp results/paperfigs_full.txt; \
		st=$$?; rm -f $$tmp; exit $$st
	@echo "results check ok: results/paperfigs_full.txt reproduced byte for byte"

# Every example must at least compile; the two fast ones also run headless
# as living documentation tests (predictorapi runs under api-smoke, and the
# long-running budgetsweep/customworkload stay build-only here — run them
# directly when wanted).
examples:
	go build ./examples/...
	go run ./examples/quickstart
	go run ./examples/compare

# Pipeline fuzz smoke: random streams through the core, every retired value
# checked by the architectural oracle — the forwarding and violation paths
# the queue searches implement — and every row checked against the eager
# stepper, which evaluates every entry every cycle.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzPipelineTrace$$' -fuzztime 10s ./internal/oracle
	go test -run '^$$' -fuzz '^FuzzEagerSchedule$$' -fuzztime 10s ./internal/pipeline
	@echo "fuzz smoke ok: 10s each of FuzzPipelineTrace and FuzzEagerSchedule, no crashers"

# Native Go fuzzing over the externally-driven surfaces: arbitrary micro-op
# streams through the oracle-verified pipeline, random streams through the
# pipeline against the eager stepper, arbitrary Configs through
# the sim facade, arbitrary bytes through the HTTP wire decoder, arbitrary
# job-spec JSON through the autotuner's strict parser.
# Seed corpora are checked in under internal/*/testdata/fuzz/; crashers that
# fuzzing discovers land next to them (gitignored) — promote one to a
# seed-* file to pin its regression test.
FUZZTIME ?= 30s

fuzz:
	go test -run '^$$' -fuzz '^FuzzPipelineTrace$$' -fuzztime $(FUZZTIME) ./internal/oracle
	go test -run '^$$' -fuzz '^FuzzEagerSchedule$$' -fuzztime $(FUZZTIME) ./internal/pipeline
	go test -run '^$$' -fuzz '^FuzzSimConfig$$' -fuzztime $(FUZZTIME) ./internal/sim
	go test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/server
	go test -run '^$$' -fuzz '^FuzzJobSpec$$' -fuzztime $(FUZZTIME) ./internal/jobs
	@echo "fuzz ok: $(FUZZTIME) per target, no crashers"

# Per-package and total statement coverage; cover.out feeds
# `go tool cover -html=cover.out` and the CI artifact upload.
cover:
	go test -coverprofile=cover.out ./...
	go tool cover -func=cover.out | tail -1

clean:
	rm -f test_output.txt cover.out
