GO ?= go

.PHONY: build test race bench bench-short bench-check bench-baseline microbench fmt vet golden golden-update fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -skip TestGoldenTraces . ./internal/campaign/ ./service/ ./gcs/
	$(GO) test -race -cpu 2 -parallel 1 -run 'TestObserverOrdering|TestRunCancelPartial|TestGoldenTraces/(udpflood-no-attitude|mission-flood|memdos-unguarded|swarm-cross-replay-unmonitored)$$' .
	$(GO) test -race -run 'TestAirframeHelper|TestRewindFieldCoverageMidRun' ./internal/core/
	$(GO) test -race -run 'TestSnapshot' ./internal/core/

# Full performance suite: emits BENCH_<timestamp>.json in the repo
# root — the trajectory point for this commit.
bench: build
	$(GO) run ./cmd/bench -out .

# Quick CI variant: shorter flights, single attempt per metric.
bench-short: build
	$(GO) run ./cmd/bench -quick -out .

# Perf-regression gate against the committed baseline: per-benchmark
# deltas, non-zero exit on >10% regression. Run on the bench machine;
# CI uses the quick baseline with a wide tolerance (hardware varies).
bench-check: build
	$(GO) run ./cmd/bench -out . -baseline testdata/bench/baseline.json

# Re-pin the committed baselines after an intentional perf change (or
# on a new bench machine); review the diff like code.
bench-baseline: build
	rm -rf .bench-baseline-tmp
	$(GO) run ./cmd/bench -repeats 5 -out .bench-baseline-tmp
	cp .bench-baseline-tmp/BENCH_*.json testdata/bench/baseline.json
	rm -rf .bench-baseline-tmp
	$(GO) run ./cmd/bench -quick -out .bench-baseline-tmp
	cp .bench-baseline-tmp/BENCH_*.json testdata/bench/baseline-quick.json
	rm -rf .bench-baseline-tmp

# Go micro-benchmarks (paper figures, ticks/sec, campaign throughput)
# at one iteration each — a smoke pass, not a measurement.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Golden-trace regression gate: every scenario's outcome pinned
# bit-for-bit in testdata/golden/.
golden:
	$(GO) test -cpu 1,2 -parallel 1 -run 'TestGolden' .

# Regenerate golden traces after an intentional behavior change;
# review the diff like code.
golden-update:
	$(GO) test -run TestGoldenTraces -update .

# Short local fuzz pass over the decoder and the receive rings.
fuzz:
	$(GO) test ./internal/mavlink -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/mavlink -run '^$$' -fuzz FuzzDecodeMessages -fuzztime 15s
	$(GO) test ./internal/netsim -run '^$$' -fuzz 'FuzzRecv$$' -fuzztime 30s
	$(GO) test ./internal/netsim -run '^$$' -fuzz 'FuzzRecvMultiEndpoint$$' -fuzztime 30s

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
