#!/usr/bin/env bash
# Builds the benchmark and the alertserve binary from the checkout that
# holds this script, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload loop-binary --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, Go's own config
# and telemetry files, temp files) stays under .bench_build/ at the root
# of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
(
	export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
		XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/alertserve" github.com/alert-project/alert/cmd/alertserve
)
# The load generator runs on at most two CPUs. The limit is set before it
# starts because the client sizes its binwire connection pool from it; the
# alertserve child does not inherit it.
cpus=$(nproc)
export GOMAXPROCS=$((cpus < 2 ? cpus : 2))
cd "$root"
exec "$out/perfbench" -alertserve "$out/alertserve" -root "$root" "$@"
