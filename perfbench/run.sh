#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache, Go config) stays
# under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
# The commit goes in by hand: the checkout may not be a git repository,
# and git must not look for one above it.
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
rev=$(git rev-parse HEAD 2>/dev/null || true)
if [ -n "$rev" ] && ! git diff --quiet HEAD 2>/dev/null; then rev="$rev+dirty"; fi
(cd perfbench && go build -buildvcs=false -ldflags "-X main.buildCommit=$rev" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
