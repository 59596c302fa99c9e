#!/usr/bin/env bash
# Builds the host-time benchmark from source and runs it. Run from the
# repository root:
#
#   bash hostbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# The build stays inside the checkout: binary, Go build cache and temp
# files all go under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f hostbench/go.mod ]]; then
	echo "hostbench: run from the root of an aitax checkout (go.mod, internal/, hostbench/)" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd hostbench && go build -o "$build/hostbench" .)
exec "$build/hostbench" --out "$build/hostbench-spans" "$@"
