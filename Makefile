# Convenience targets for the streamquantiles reproduction.

GO ?= go

.PHONY: all verify build test race lint lint-strict check crash stress-smoke fuzz bench bench-all bench-baselines bench-ingest bench-query bench-parallel parallel-smoke bench-checkpoint checkpoint-smoke bench-compare experiments report html clean

all: build test lint

# The umbrella gate CI runs: build + vet, the test suite, the race
# detector, strict quantlint (all 15 rules, waived findings inventoried),
# the sqcheck deep-sanitizer pass, a seeded quantstress soak and the
# multi-writer scaling and checkpoint fan-out efficiency smokes.
verify: build test lint-strict race check stress-smoke parallel-smoke checkpoint-smoke

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every package but internal/harness: its paper-experiment replay is
# single-goroutine numerics (no go statements, no sync), so the race
# detector has nothing to watch there while the replay would dominate
# the pass. It still runs in `test` and `check`.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v '/internal/harness$$')

# Repo-specific static analysis (rules SQ001-SQ015); see cmd/quantlint.
lint:
	$(GO) run ./cmd/quantlint ./...

# As lint, but also prints the findings waived by //lint:ignore
# directives so the suppression inventory stays reviewable.
lint-strict:
	$(GO) run ./cmd/quantlint -strict ./...

# Deep invariant checking: the sqcheck build tag arms the runtime
# sanitizer inside the test suite's samplers.
check:
	$(GO) test -tags sqcheck ./...

# Fault-injected crash recovery: the full matrix (every registered
# summary x torn write / bit flip / short read / transient EIO), the
# checkpoint and fault-injection packages, and the kill -9 CLI resume
# test, all under -race with the sqcheck sanitizer armed.
crash:
	$(GO) test -race -tags sqcheck -run 'TestCrashRecovery' -v -count=1 .
	$(GO) test -race -tags sqcheck -count=1 ./internal/checkpoint/ ./internal/faultio/
	$(GO) test -race -count=1 -run 'TestKillNineResume|TestSaveLoad|TestResume' ./cmd/quantcli/
	$(GO) test -race -count=1 -run 'TestKillNineResume|TestShortSoakFaults' ./cmd/quantstress/

# Seeded elasticity soak: mixed read/write traffic with online
# reshards, a re-ε rebuild, checkpointing under injected faults and
# recovery drills, asserting rank-error bounds, count conservation and
# structural invariants throughout. Deterministic per seed, so a
# failure reproduces from the printed flags; the race-built pass drives
# the same shape through the race detector.
STRESS_OPS ?= 60000
# The drain bound asserts the elastic protocol's promise: ingestion
# stalls for at most one shard's drain, and no single drain may take
# seconds at smoke scale even on a loaded shared runner.
STRESS_DRAIN_MAX ?= 2s
# The checkpoint bound asserts the save path's stop-the-shard promise:
# a save stalls ingestion for at most one shard's marshal, never the
# whole container's, so no single per-shard marshal may take seconds.
STRESS_CKPT_MAX ?= 2s
stress-smoke:
	$(GO) build -o /tmp/sq_quantstress ./cmd/quantstress
	/tmp/sq_quantstress -algo kll -bits 14 -ops $(STRESS_OPS) -dist zipf -reshard 6,3 -retarget-eps 0.02 -ckpt-dir /tmp/sq_stress_ck -ckpt-every 20000 -faults -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX) -slo-checkpoint-max $(STRESS_CKPT_MAX)
	/tmp/sq_quantstress -algo mrl99 -bits 14 -ops $(STRESS_OPS) -dist uniform -reshard 6 -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX)
	/tmp/sq_quantstress -algo dcs -bits 12 -ops $(STRESS_OPS) -dist ooo -reshard 5,2 -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX)
	/tmp/sq_quantstress -algo dcs -bits 20 -ops $(STRESS_OPS) -dist zipf -reshard 5,2 -verify-every 30000 -slo-drain-max $(STRESS_DRAIN_MAX)
	rm -rf /tmp/sq_stress_ck
	$(GO) run -race ./cmd/quantstress -algo gkarray -bits 14 -ops 30000 -dist zipf -reshard 5 -retarget-eps 0.02
	$(GO) test -race -count=1 -run 'TestShortSoak|TestKillNineResume' ./cmd/quantstress/

# Short live-fuzz session over the decoder harnesses (the seed corpus
# alone runs as part of `make test`).
fuzz:
	$(GO) test -fuzz=FuzzDecodeMutated -fuzztime=60s -run FuzzDecodeMutated .
	$(GO) test -fuzz=FuzzDecode -fuzztime=60s -run FuzzDecode ./internal/freqsketch/

bench:
	$(GO) test -bench=. -benchmem ./...

# Ingestion throughput: per-item vs batched updates for every summary,
# and sharded scaling at P=1,2,4,8. Writes the committed baseline from
# the conservative merge of several passes (fastest item-at-a-time rate,
# slowest batch rate — so the recorded speedups lower-bound a typical
# run); CI re-measures at reduced n and compares batch speedups against
# it.
INGEST_N ?= 2000000
INGEST_RUNS ?= 3
bench-ingest:
	$(GO) run ./cmd/quantbench -ingest -n $(INGEST_N) -ingest-runs $(INGEST_RUNS) -ingest-out BENCH_ingest.json

# Query-path throughput: per-phi vs single-pass batched vs
# snapshot-cached quantile extraction for every summary, plus the
# sharded fold cache. Writes the committed baseline from the
# conservative merge of several passes (so CI's single pass clears the
# 25%-tolerance floors even on noisy runners); CI re-measures at the
# same n — cached speedups grow with n — and compares the ratios.
QUERY_N ?= 2000000
QUERY_RUNS ?= 3
bench-query:
	$(GO) run ./cmd/quantbench -query -n $(QUERY_N) -query-runs $(QUERY_RUNS) -query-out BENCH_query.json

# Multi-core write-path scaling: W writer goroutines, each with its own
# AcquireWriter handle, feed a W-shard container element-at-a-time at
# W = 1, 2, 4 and NumCPU. The committed baseline merges several passes
# conservatively (fastest 1-writer rate, slowest multi-writer rate) so
# its efficiency floors lower-bound a typical run; the compare gates on
# scaling efficiency — rate(W) / (rate(1) x min(W, GOMAXPROCS)) — which
# is machine-portable where absolute Melem/s is not.
PARALLEL_N ?= 2000000
PARALLEL_RUNS ?= 3
bench-parallel:
	$(GO) run ./cmd/quantbench -parallel -n $(PARALLEL_N) -parallel-runs $(PARALLEL_RUNS) -parallel-out BENCH_parallel.json

# Scaling-efficiency smoke (part of `make verify`): one reduced-n
# parallel pass compared against the committed BENCH_parallel.json at
# the default 25% tolerance. Efficiency is normalized to the measuring
# machine's cores, so the same committed baseline gates a 1-core
# container (pure handle overhead) and a 4-core runner (where a 0.75
# floor at W=4 demands >= 3x the 1-writer throughput).
PARALLEL_SMOKE_N ?= 500000
parallel-smoke:
	$(GO) run ./cmd/quantbench -parallel -n $(PARALLEL_SMOKE_N) -parallel-out /tmp/sq_parallel_ci.json
	$(GO) run ./cmd/quantbench -parallel-compare BENCH_parallel.json /tmp/sq_parallel_ci.json

# Durability-path scaling: save (per-shard fan-out marshal + framed
# write) and recover (pipelined CRC verify + fan-out decode) of a
# 64-shard container, swept over worker counts P = 1/4/16/64. The
# committed baseline merges several passes conservatively (fastest
# sequential rate, slowest fan-out rate) and the compare gates on
# scaling efficiency — rate(P) / (rate(1) x min(P, GOMAXPROCS)) — the
# same machine-portable normalization as bench-parallel.
CHECKPOINT_N ?= 2000000
CHECKPOINT_RUNS ?= 3
bench-checkpoint:
	$(GO) run ./cmd/quantbench -checkpoint -n $(CHECKPOINT_N) -checkpoint-runs $(CHECKPOINT_RUNS) -checkpoint-out BENCH_checkpoint.json

# Checkpoint fan-out smoke (part of `make verify`): one reduced-n
# save/recover sweep compared against the committed
# BENCH_checkpoint.json at the default 25% tolerance. On a 1-core
# container every efficiency measures pure fan-out overhead; on a
# 4-core runner the baseline's 0.86-class floors at P = 64 demand
# roughly 3x the sequential save and recover rate.
CHECKPOINT_SMOKE_N ?= 500000
checkpoint-smoke:
	$(GO) run ./cmd/quantbench -checkpoint -n $(CHECKPOINT_SMOKE_N) -checkpoint-out /tmp/sq_checkpoint_ci.json
	$(GO) run ./cmd/quantbench -checkpoint-compare BENCH_checkpoint.json /tmp/sq_checkpoint_ci.json

# Refresh the committed baselines in one go.
bench-baselines: bench-ingest bench-query bench-parallel bench-checkpoint

# Regression gate: re-measure one pass of each path at a reduced n and
# compare the speedup ratios against the committed baselines under the
# default 25% tolerance (absolute rates vary with machine and n; the
# ratios are what the batch/snapshot work promises). bench-all is the
# one-command local mirror of CI's two benchmark gates.
bench-all: bench-compare
COMPARE_N ?= 500000
bench-compare:
	$(GO) run ./cmd/quantbench -ingest -n $(COMPARE_N) -ingest-out /tmp/sq_ingest_ci.json
	$(GO) run ./cmd/quantbench -ingest-compare BENCH_ingest.json /tmp/sq_ingest_ci.json
	$(GO) run ./cmd/quantbench -query -n $(COMPARE_N) -query-out /tmp/sq_query_ci.json
	$(GO) run ./cmd/quantbench -query-compare BENCH_query.json /tmp/sq_query_ci.json
	$(GO) run ./cmd/quantbench -parallel -n $(COMPARE_N) -parallel-out /tmp/sq_parallel_ci.json
	$(GO) run ./cmd/quantbench -parallel-compare BENCH_parallel.json /tmp/sq_parallel_ci.json
	$(GO) run ./cmd/quantbench -checkpoint -n $(COMPARE_N) -checkpoint-out /tmp/sq_checkpoint_ci.json
	$(GO) run ./cmd/quantbench -checkpoint-compare BENCH_checkpoint.json /tmp/sq_checkpoint_ci.json

# Regenerate EXPERIMENTS.md (several minutes at the default n).
experiments:
	$(GO) run ./cmd/quantbench -all -format markdown > EXPERIMENTS.md

# Self-contained HTML results page.
html:
	$(GO) run ./cmd/quantbench -all -format html > results.html

clean:
	$(GO) clean ./...
	rm -f results.html test_output.txt bench_output.txt
