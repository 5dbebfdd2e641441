#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload pingpong-offload --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build at the
# root of the checkout: the Go build cache, the binary and the Chrome
# traces of traced runs.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The benchmark module imports the repository's packages from the parent
# directory; without them the build fails and no result is printed.
if ! go -C "$here" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" --out "$out" "$@"
