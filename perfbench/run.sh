#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cash-live --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
