#!/usr/bin/env bash
# Build the serving benchmark against this checkout's library, then run it.
#
#   bash servebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash servebench/run.sh --check-tests     # show each output check can fail
#
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/servebench"

target=servebench
if [ "${1:-}" = "--check-tests" ]; then
  target=servebench_check_tests
  shift
fi

{
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target "$target" -j 4
} 1>&2

# Results and span dumps go to .servebench_out/ under the repository root,
# wherever the command was started from.
cd "$root"
exec "$build/$target" "$@"
