#!/usr/bin/env bash
# Build the benchmark and the szcd daemon from source, then run one
# workload:
#
#   bash szbench/run.sh --workload verdict-mcf --seed 1 --seconds 25 --trace 0
#
# Must be started from (or below) a full checkout of the repository.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "szbench: lib/, bin/ or dune-project missing; run from a full checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . szbench/main.exe bin/szcd.exe 1>&2
exec ./_build/default/szbench/main.exe --szcd ./_build/default/bin/szcd.exe "$@"
