#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# $CARGO_TARGET_DIR, default .bench_build in the repository root. The
# build fails, and the script exits non-zero without a result, when the
# repository sources are absent.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
