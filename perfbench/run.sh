#!/usr/bin/env bash
# Build the scenario benchmark from the checkout's sources and run it.
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
# Run from the root of the repository. Without the repository's sources
# (dune-project, lib/) it fails before printing any result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib/workload || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the repository root; sources not found" >&2
  exit 1
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found" >&2
  exit 1
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
