#!/usr/bin/env bash
# Builds filter-server and the perfbench load generator from the checkout's
# sources, then runs one benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload probe_l2 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout:
# binaries and the Go build cache under .bench_build/, server logs, spans
# and ledgers under .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/filter-server" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/filter-server here)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0

go build -o "$build/bin/filter-server" ./cmd/filter-server
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -server "$build/bin/filter-server" -out "$root/.bench_out" "$@"
