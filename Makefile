# Convenience targets for the streamquantiles reproduction.

GO ?= go

.PHONY: all verify build test race lint lint-strict check crash stress-smoke fuzz bench bench-all bench-baselines bench-ingest bench-query bench-parallel bench-checkpoint ingest-smoke query-smoke parallel-smoke checkpoint-smoke bench-compare experiments html clean

all: build test lint

# The umbrella gate CI runs: build + vet, the test suite, the race
# detector, strict quantlint (all 9 rules, waived findings inventoried),
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

# Repo-specific static analysis (9 rules, SQ001-SQ015 with SQ005, SQ007,
# SQ008 and SQ013 retired into tests and SQ010 and SQ011 into the types
# of internal/sharded/cell); see cmd/quantlint.
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

# Baselines and gates (cmd/quantbench -bench / -compare). Each path —
# ingest, query, parallel, checkpoint — writes one schema of rows, each
# the ratio of a reference and a measured timing taken in interleaved
# trials: batch/snapshot/fold-cache speedups, and scaling efficiency
# rate(p) / (rate(1) x min(p, GOMAXPROCS)). Every measuring command pins
# -cpus 2, the GOMAXPROCS the committed BENCH_*.json were recorded at:
# -compare refuses a run at another value, because efficiency at 1 core
# measures fan-out overhead and at 2 real scaling.
QUANTBENCH = $(GO) run ./cmd/quantbench

# Record a committed baseline from the conservative merge of several
# passes (per row, the run with the lowest ratio), so its ratios
# lower-bound a typical run and the compare tolerance absorbs
# machine noise rather than stacking on a lucky baseline. If a gated
# row flakes, re-record it with more BENCH_RUNS; never raise -tol.
BENCH_N ?= 2000000
BENCH_RUNS ?= 3
bench-ingest bench-query bench-parallel bench-checkpoint: bench-%:
	$(QUANTBENCH) -bench $* -cpus 2 -n $(BENCH_N) -runs $(BENCH_RUNS) -out BENCH_$*.json
# Over ten gate runs against three-run baselines, ingest's dcs batch row
# and query's gkbiased cached row came within 2% of their floors; over
# ten against a six-run ingest baseline, the sharded dcs P = 8 row
# failed once.
bench-query: BENCH_RUNS = 6
bench-ingest: BENCH_RUNS = 10

# Refresh the committed baselines in one go.
bench-baselines: bench-ingest bench-query bench-parallel bench-checkpoint

# Per-path gates: one pass of a path, compared against its committed
# baseline at the default 25% tolerance. Each (path, summary) gates its
# widest-p row. parallel-smoke and checkpoint-smoke are part of
# `make verify`. The fan-out sweeps run at reduced n. Query and ingest
# run at the baseline's n: the cached speedup grows with n by design
# (per-φ cost is O(s), a cached hit O(log s)), and at 500k the sharded
# dcs P = 8 ingest row read 0.42–0.78 against its 0.43 floor.
SMOKE_N ?= 500000
ingest-smoke query-smoke parallel-smoke checkpoint-smoke: %-smoke:
	$(QUANTBENCH) -bench $* -cpus 2 -n $(SMOKE_N) -out /tmp/sq_$*_ci.json
	$(QUANTBENCH) -compare BENCH_$*.json /tmp/sq_$*_ci.json
query-smoke: SMOKE_N = $(BENCH_N)
ingest-smoke: SMOKE_N = $(BENCH_N)

# Regression gate over every path (absolute rates vary with machine and
# n; the ratios are what the batch, snapshot and fan-out work
# promises). bench-all is the one-command local mirror of CI's
# benchmark job.
bench-all: bench-compare
bench-compare: ingest-smoke query-smoke parallel-smoke checkpoint-smoke

# Regenerate EXPERIMENTS.md (several minutes at the default n).
experiments:
	$(GO) run ./cmd/quantbench -all -format markdown > EXPERIMENTS.md

# Self-contained HTML results page.
html:
	$(GO) run ./cmd/quantbench -all -format html > results.html

clean:
	$(GO) clean ./...
	rm -f results.html test_output.txt bench_output.txt
