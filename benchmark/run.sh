#!/usr/bin/env bash
# Builds the benchmark and the server it measures from this checkout,
# then runs the benchmark with the given arguments:
#
#   bash benchmark/run.sh --workload serve-plain --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache go
# to .bench_build/ so nothing outside the checkout is written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/ntpserver" ]]; then
	echo "run.sh: $root holds no mntp source tree (go.mod, cmd/ntpserver)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
(cd "$root" && go build -o "$out/ntpserver" ./cmd/ntpserver)
(cd "$here" && go build -o "$out/benchmark" .)
BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown) \
	exec "$out/benchmark" --server-bin "$out/ntpserver" --out "$out/trace" "$@"
