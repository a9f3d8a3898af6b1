#!/usr/bin/env bash
# The repository benchmark in one command: configure and build benchmark/
# (Release) into .bench_build/, then run rcmp_bench with the arguments
# given. Without arguments it runs all four workloads at seed 42, with
# untraced rounds for the default --seconds and then one traced round,
# writes the results JSON to .bench_build/results.json and the traced
# round's traces to .bench_build/trace/.
#
#   bash benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                         [--trace 0|1] [--out FILE] [--trace-dir DIR]
#
# Build output goes to stderr; stdout ends with one JSON result line.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/rcmp_bench"

if [[ ! -f "$root/src/CMakeLists.txt" ]]; then
  echo "run.sh: rcmp sources not found under $root/src" >&2
  exit 1
fi

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j"$(nproc)" >&2

cd "$root"
exec "$build/rcmp_bench" --out .bench_build/results.json \
  --trace-dir .bench_build/trace "$@"
