#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to standard error; the last line of standard output is
# the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
