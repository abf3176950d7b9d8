GO ?= go

.PHONY: build test race bench microbench fmt vet golden golden-update fuzz loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -skip TestGoldenTraces . ./internal/campaign/ ./service/ ./gcs/
	$(GO) test -race -cpu 2 -parallel 1 -run 'TestObserverOrdering|TestRunCancelPartial|TestGoldenTraces/(udpflood-no-attitude|mission-flood|memdos-unguarded|swarm-cross-replay-unmonitored)$$' .
	$(GO) test -race -run 'TestAirframeHelper' ./internal/core/
	$(GO) test -race -run 'TestSnapshot|TestRewind' ./internal/core/

# Full performance suite (perfbench, about 2 minutes): emits
# BENCH_<timestamp>.json in the repo root — the trajectory point for
# this commit. Gate a later run against it with
# `bash perfbench/run.sh --workload all --baseline BENCH_<ts>.json`.
bench:
	bash perfbench/run.sh --workload all --out .

# Go micro-benchmarks (paper figures, ticks/sec, campaign throughput,
# the airframe kernel, the network fabric) at one iteration each — a
# smoke pass, not a measurement.
microbench:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/physics ./internal/netsim

# Golden-trace regression gate: every scenario's outcome pinned
# bit-for-bit in testdata/golden/.
golden:
	$(GO) test -cpu 1,2 -parallel 1 -run 'TestGolden' .

# Regenerate golden traces after an intentional behavior change;
# review the diff like code.
golden-update:
	$(GO) test -run TestGoldenTraces -update .

# Short local fuzz pass over the decoders, the receive rings, burst
# sends against single sends, the service's request and journal
# decoders, and the airframe kernel against its reference.
fuzz:
	$(GO) test ./internal/mavlink -run '^$$' -fuzz 'FuzzDecode$$' -fuzztime 30s
	$(GO) test ./internal/mavlink -run '^$$' -fuzz FuzzDecodeMessages -fuzztime 15s
	$(GO) test ./internal/netsim -run '^$$' -fuzz 'FuzzRecv$$' -fuzztime 30s
	$(GO) test ./internal/netsim -run '^$$' -fuzz 'FuzzRecvMultiEndpoint$$' -fuzztime 30s
	$(GO) test ./internal/netsim -run '^$$' -fuzz 'FuzzSendBurst$$' -fuzztime 15s
	$(GO) test ./internal/physics -run '^$$' -fuzz 'FuzzQuadStep$$' -fuzztime 15s
	$(GO) test ./service -run '^$$' -fuzz 'FuzzCampaignRequest$$' -fuzztime 15s
	$(GO) test ./service -run '^$$' -fuzz 'FuzzJournalReplay$$' -fuzztime 15s

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Non-test Go lines outside perfbench/ (and its build directory): the
# code-size figure ROADMAP and CHANGES.md track.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.perfbench/*' | xargs cat | wc -l
