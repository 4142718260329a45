#!/usr/bin/env bash
# Builds the served-path benchmark from this checkout and runs it:
#   bash perfbench/run.sh --workload edit --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh self-test
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
