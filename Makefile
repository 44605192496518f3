GO ?= go

.PHONY: all build test vet race bench bench-diff qor-baseline qor-diff

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Run the benchmark (perf/README.md): every workload, BENCH_RUNS fresh
# 30-s runs each plus one traced run, summarized into BENCH_OUT. The
# full default takes about half an hour; BENCH_RUNS=3 is a quick pass.
BENCH_RUNS ?= 10
BENCH_OUT ?= .bench-head.json

bench:
	bash perf/run.sh -runs $(BENCH_RUNS) -out $(BENCH_OUT)

# Compare BENCH_OUT (from make bench) against the committed baseline
# with the bounds in BENCHMARK.json; exits 1 on a regression.
bench-diff:
	bash perf/run.sh -compare perf/results/baseline.json $(BENCH_OUT)

# Regenerate the committed QoR baseline from a fresh gate run.
qor-baseline:
	$(GO) run ./cmd/vpgaflow qor baseline -out qor/baseline.json

# Drift-gate the current tree against the committed baseline.
qor-diff:
	$(GO) run ./cmd/vpgaflow qor diff -v
