#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments. This
# is the command BENCHMARK.json names. Everything the build writes (Go build
# cache, temporary files, the binary) stays under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ]; then
  echo "benchmark/run.sh: no go.mod beside benchmark/: the benchmark builds against the repository's packages" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/paralagg-benchmark" ./benchmark
exec "$build/paralagg-benchmark" "$@"
