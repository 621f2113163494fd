#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build messages go to stderr, so the
# last line on stdout is the benchmark's JSON result. Fails (non-zero,
# no result) when the tree it sits in cannot be built.
set -eu
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
