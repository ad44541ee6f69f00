#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:  bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 25 --trace 0
# The binary, the Go build cache, temporary files and span files all
# stay under .bench_build/ at the root; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
