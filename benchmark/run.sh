#!/usr/bin/env bash
# Build the benchmark from the checkout it sits in, then run it; every
# argument is passed through to benchmark/main.exe (see README.md):
#
#   bash benchmark/run.sh --workload kv-read --seed 42 --seconds 10 --trace 0
#
# Build products go to .bench_build at the checkout root; the dune cache is
# off so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
dune build --root . --build-dir .bench_build --cache=disabled --display=quiet \
  ./benchmark/main.exe >&2
exec .bench_build/default/benchmark/main.exe "$@"
