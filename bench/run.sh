#!/usr/bin/env bash
# Builds the benchmark and the powderd daemon from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload heavy-seq --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh -seed 1                      # all workloads, both passes
#   bash bench/run.sh compare A.json B.json
#
# Binaries, the Go build cache and scratch files stay under .bench_build/ at
# the repository root, so the run reads and writes nothing outside the
# checkout apart from the Go toolchain itself.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(
	cd "$bench_dir"
	go build -o "$out/bin/bench" .
	go build -o "$out/bin/powderd" powder/cmd/powderd
) >&2

cd "$root"
exec "$out/bin/bench" "$@"
