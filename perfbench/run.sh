#!/usr/bin/env bash
# Builds the divflow benchmark from the source tree it sits in and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload offline-solve --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so a run writes nothing outside the
# checkout it measures.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
