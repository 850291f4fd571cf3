#!/usr/bin/env bash
# Builds the msbench benchmark from this checkout's sources and runs it
# with the given arguments, from the checkout root:
#
#   bash bench/run.sh --workload fig10-smt --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build and module caches, the binary,
# temporary files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0

# The benchmark is the package's test binary (see main_test.go). Build
# it to a private name first so concurrent runs never execute a
# half-written binary. Build output goes to stderr: standard output
# carries only the result.
go -C "$root/bench" test -c -trimpath -buildvcs=false -o "$out/msbench.$$" . >&2
mv -f "$out/msbench.$$" "$out/msbench"

rev=unknown
if [ -e "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

cd "$root"
exec "$out/msbench" --rev "$rev" "$@"
