#!/usr/bin/env bash
# Build the benchmark from source and run one workload:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to standard error, so
# the last line of standard output is the benchmark's JSON result. The
# dune cache and the compiler's temporary files stay inside _build.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p _build/tmp
export TMPDIR="$PWD/_build/tmp" DUNE_CACHE=disabled
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
