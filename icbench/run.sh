#!/usr/bin/env bash
# Builds the ictm benchmark from source inside the checkout and runs it.
# Every argument goes to the benchmark, e.g.
#   bash icbench/run.sh --workload geant-online --seed 1 --seconds 30 --trace 0
#   bash icbench/run.sh twoset --workload isp100-batch --runs 5
# The build cache, the go command's own configuration and telemetry
# (XDG_CONFIG_HOME), the binary and everything a run writes stay under
# .bench_build/icbench at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build/icbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/icbench" .)
cd "$root"
exec "$out/icbench" "$@"
