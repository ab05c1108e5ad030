#!/usr/bin/env bash
# Builds the layer-attributed benchmark from this checkout's sources and
# runs one workload; the last line of stdout is the JSON result.
#
#   bash layerbench/run.sh --workload market|crowd --seed N --seconds S --trace 0|1
#
# Run it from the root of a checkout.  Build output goes to stderr.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "layerbench: no dune-project or lib/ here; run from the root of a full checkout" >&2
  exit 2
fi
# No shared dune cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . ./layerbench/main.exe 1>&2
exec ./_build/default/layerbench/main.exe "$@"
