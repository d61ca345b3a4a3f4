#!/usr/bin/env bash
# BENCHMARK.json's command: builds dtnbench from the checkout it is run in
# and runs it with the arguments given. Everything the Go toolchain and the
# benchmark write — build cache, temporary files, the binary, durable-small's
# WAL directories — stays under .bench_build in that checkout, so the run
# needs no writable home or /tmp. Run it from the root of the repository:
#
#	bash cmd/dtnbench/bench.sh --workload pair-recurring --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/dtnbench ] || [ ! -d internal ]; then
	echo "bench.sh: run from the root of the repository (no go.mod, cmd/dtnbench or internal here)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi

root="$PWD/.bench_build"
mkdir -p "$root/tmp" "$root/bin"
export GOCACHE="$root/gocache" GOPATH="$root/gopath" GOTMPDIR="$root/tmp" TMPDIR="$root/tmp"
export XDG_CONFIG_HOME="$root/config" XDG_CACHE_HOME="$root/cache"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$root/bin/dtnbench" ./cmd/dtnbench
exec "$root/bin/dtnbench" -tmpdir "$root/wal" "$@"
