#!/usr/bin/env bash
# Builds cmd/cstserved and the perfbench program from this checkout, then
# runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload pair-wire --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache live in .bench_build/ so nothing is
# written outside the checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/cstserved || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/cstserved" ./cmd/cstserved
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/cstserved" "$@"
