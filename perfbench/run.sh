#!/usr/bin/env bash
# Builds suud and the benchmark driver from this checkout into .bench_build,
# then runs the driver with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 55 --trace 0
#
# Every file the build or the run writes (Go build cache, binaries, suud's
# store directories) stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/suud || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/suud and perfbench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/suud" ./cmd/suud
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
