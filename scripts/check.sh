#!/bin/sh
# Local CI gate: build everything, run the whole test suite twice -- once
# sequential, once over a 4-domain pool -- check the benches' deterministic
# rows (lint counts included) against the committed BENCH_*.json, then
# replay the chaos suite at fixed seeds across both pool sizes and
# against the committed outputs in scripts/golden/ (scripts/golden.sh,
# which also runs on its own).  Results must agree:
# the parallel primitives guarantee bit-identical output at any
# ZEBRA_DOMAINS (see DESIGN.md), the fault schedule is keyed by the seed
# alone, and this is where both contracts are enforced.
set -eu
cd "$(dirname "$0")/.."
dune build @check
echo "== tests, ZEBRA_DOMAINS=1 =="
ZEBRA_DOMAINS=1 dune runtest --force
echo "== tests, ZEBRA_DOMAINS=4 =="
ZEBRA_DOMAINS=4 dune runtest --force

# Deterministic-cost gate: re-run the snark, field, lint and chaos
# benches and compare every deterministic row -- proof digests,
# constraint counts, allocated bytes, lint counts, chaos settlements and
# heights -- with the committed BENCH_*.json exactly (bench/row.ml).
# This is also the lint gate, one analysis per deployed subject: bench
# lint fails on any Error finding in a circuit (ZL0xx), tx kind's
# footprint (ZL1xx) or secret-flow codec case (ZL2xx) before it compares
# a row, and every lint.*.errors row is pinned at 0.
# Allocation is counted per domain, so the rows are pinned at
# ZEBRA_DOMAINS=1; the snark rows are checked again at 4 domains, since
# pool size may not change a single proof byte (see DESIGN.md).
echo "== bench check (deterministic rows vs BENCH_*.json) =="
BENCH="./_build/default/bench/main.exe"
ZEBRA_DOMAINS=1 "$BENCH" check snark field lint chaos
ZEBRA_DOMAINS=4 "$BENCH" check snark

# Chaos, byzantine, index and load-smoke traces against scripts/golden/.
sh scripts/golden.sh
