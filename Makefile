GO ?= go

.PHONY: all build test test-norace vet loc bench bench-smoke bench-wall experiments validate results examples fleet-demo clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Size of the program: non-test Go lines outside hostbench/ (blank and
# comment-only lines excluded), then the package count.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './hostbench/*' ! -path './.bench_build/*' | xargs cat | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l
	@$(GO) list ./... | wc -l

# vet + race so the concurrent lab runner is race-checked on every run.
test: vet
	$(GO) test -race ./...

# Plain (no -race) test run, for hosts without race-detector support.
test-norace:
	$(GO) test ./...

# Full test log, as the release process captures it.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Full benchmark sweep -> raw log + dated JSON report for the
# regression gate. Compare two reports with:
#   go run ./cmd/aitax bench -compare OLD.json NEW.json
BENCH_DATE ?= $(shell date +%Y-%m-%d)
bench:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/aitax bench -parse bench_output.txt -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json
	@echo "wrote BENCH_$(BENCH_DATE).json"

# Packages covered by the CI benchmark gates (the root package carries
# the pixel-kernel microbenchmarks and the cold-path benchmarks —
# ColdStart, DriverFix, DVFSRamp — that the arena work is locked in
# by). internal/sim and
# internal/capture are not in the baseline, so their entries are listed
# but not gated; their AllocsPerRun tests pin the zero-alloc paths.
BENCH_PKGS = . ./internal/benchfmt/ ./internal/obs/ ./internal/qos/ ./internal/telemetry/ ./internal/plan/ ./internal/fleet/ ./internal/sim/ ./internal/capture/
BENCH_BASELINE ?= BENCH_2026-08-08_fleet.json

# Quick allocation/regression smoke: one iteration per benchmark, parsed
# into BENCH_smoke.json (a scratch file — the committed dated baselines
# are never overwritten) and gated against the committed baseline in
# allocs-only mode: 1-iteration wall times and warm-up alloc counts are
# noise, but an allocation creeping onto a zero-alloc hot path fails the
# build exactly. CI's bench-smoke job runs this, then bench-wall.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' $(BENCH_PKGS) 2>&1 | tee bench_smoke.txt
	$(GO) run ./cmd/aitax bench -parse bench_smoke.txt -date $(BENCH_DATE) -out BENCH_smoke.json
	$(GO) run ./cmd/aitax bench -compare -allocs-only $(BENCH_BASELINE) BENCH_smoke.json

# Wall-time gate (see docs/PERF.md "Wall-time gate"): the three arena
# cold paths rerun at 1s/benchmark, best of 5 counts (Parse keeps the
# fastest run, which clips one-sided scheduler noise), and gated against
# the committed baseline in -wall mode: 1-iteration entries are skipped,
# ns/op below the floor is reported but not judged, and allocs/op is
# gated at the same threshold with no floor. The threshold is wide
# (60%) because cross-run wall time on shared hardware jitters ±30%;
# the gate exists to catch gross regressions such as losing the arena
# (ColdStart ns and allocs both jump >4x).
BENCH_WALL_PAT = ^Benchmark(ColdStart|DriverFix|DVFSRamp)$$
bench-wall:
	$(GO) test -bench='$(BENCH_WALL_PAT)' -benchtime=1s -benchmem -count=5 -run '^$$' . 2>&1 | tee bench_wall.txt
	$(GO) run ./cmd/aitax bench -parse bench_wall.txt -date $(BENCH_DATE) -out BENCH_wall.json
	$(GO) run ./cmd/aitax bench -compare -wall -threshold 0.60 -ns-floor 25000 $(BENCH_BASELINE) BENCH_wall.json

# Regenerate every paper table/figure plus the extensions.
experiments:
	$(GO) run ./cmd/aitax experiments

# CI-style gate: exit non-zero if any paper shape check regressed.
validate:
	$(GO) run ./cmd/aitax validate

# Refresh the committed reference results (docs/RESULTS.txt).
results:
	mkdir -p docs
	$(GO) run ./cmd/aitax experiments -runs 50 > docs/RESULTS.txt
	$(GO) run ./cmd/aitax experiments -runs 50 -format markdown > docs/RESULTS.md

examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done; echo all examples ran

# Fleet population export for the CI artifact upload (see
# docs/FLEET.md). The report itself is pinned by TestGoldenFleetReport
# at four (-parallel, -shards) shapes under go test.
fleet-demo:
	$(GO) run ./cmd/aitax fleet -devices 2000 -seed 42 -parallel 8 -shards 64 -jsonl fleet_population.jsonl > /dev/null
	@test -s fleet_population.jsonl || { echo "fleet_population.jsonl missing or empty"; exit 1; }

clean:
	rm -f test_output.txt bench_output.txt bench_smoke.txt BENCH_smoke.json bench_wall.txt BENCH_wall.json fleet_population.jsonl
