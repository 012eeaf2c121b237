#!/usr/bin/env bash
# Build the benchmark from the sources of the checkout it sits in, then run
# it with the given arguments (see perfbench/NOTES.md):
#   bash perfbench/run.sh --workload networks-cold --seed 1 --seconds 10 --trace 0
# The build writes only under _build/ of the checkout (the shared dune cache
# is off); the run writes only under .perfbench-out/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
