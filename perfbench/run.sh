#!/usr/bin/env bash
# Builds slserve and the perfbench driver from the source tree it is run in,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload release-lp --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands under .bench_build/ in the
# current directory: the Go build cache, the binaries, and the slserve data
# directories. The last line of standard output is the JSON result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/slserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/slserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
# The toolchain's cache, module and config directories (telemetry included)
# live in the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

# Build to a private name and rename into place, so a concurrent run never
# executes a half-written binary.
go build -o "$out/bin/slserve.$$" ./cmd/slserve
mv -f "$out/bin/slserve.$$" "$out/bin/slserve"
(cd perfbench && go build -o "$out/bin/perfbench.$$" .)
mv -f "$out/bin/perfbench.$$" "$out/bin/perfbench"

exec "$out/bin/perfbench" --slserve "$out/bin/slserve" --workdir "$out/run" "$@"
