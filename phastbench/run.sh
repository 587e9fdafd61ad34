#!/usr/bin/env bash
# Builds phastbench from the checkout's sources and runs it with the given
# flags. Run from the repository root, for example:
#
#   bash phastbench/run.sh --workload sim-membound --seed 1 --seconds 12 --trace 0
#
# The Go build cache, the binary and the benchmark's scratch files stay in
# .bench_build/phastbench under the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/phastbench"
mkdir -p "$out"
(
	cd "$root/phastbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
		go build -o "$out/phastbench" .
)
exec "$out/phastbench" "$@"
