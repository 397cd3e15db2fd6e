#!/usr/bin/env bash
# Builds perfbench from source in this checkout and runs it with the given
# flags, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 10 --trace 0
#
# Run from the root of a repository checkout: the benchmark imports the
# repository's packages, so it cannot build anywhere else. Everything the
# build and the run write (Go build cache, temporary files, the serve
# workload's store, span dumps) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out" "$@"
