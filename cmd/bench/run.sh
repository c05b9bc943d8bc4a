#!/usr/bin/env bash
# Builds cmd/bench from the checkout it is run in, then runs it with the
# arguments given. Run it from the repository root:
#
#	bash cmd/bench/run.sh --workload serve --seed 3 --seconds 18 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, module cache, temporary files (the benchmark's stores and
# saved grids) and the binary all go under $CARGO_TARGET_DIR, or
# .bench_build when it is unset.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/core ]; then
	echo "run.sh: run from the root of a lossyts checkout" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local
go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
