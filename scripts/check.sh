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

# Unchecked array access stays inside Fp's kernels, behind one index
# check per call (DESIGN.md, "Field kernel discipline"): no other .ml
# under lib/, bin/ or bench/ may use Array.unsafe_*, and no dune file may
# compile anything with -unsafe.
echo "== unchecked array access only in lib/field/fp.ml =="
if grep -rn --include='*.ml' 'Array\.unsafe_' lib bin bench | grep -v '^lib/field/fp\.ml:'; then
  echo "check.sh: Array.unsafe_ outside lib/field/fp.ml" >&2
  exit 1
fi
if find . -path ./_build -prune -o \( -name dune -o -name dune-project \) -print |
  xargs grep -n -e '-unsafe'; then
  echo "check.sh: a dune file passes -unsafe" >&2
  exit 1
fi

# One Montgomery implementation per modulus: Fp computes everything about
# r on its own kernels, so nothing under lib/field may name the generic
# engine (DESIGN.md, "Field kernel discipline").
echo "== lib/field does not use Modular =="
if grep -rn 'Modular' lib/field; then
  echo "check.sh: lib/field names Modular" >&2
  exit 1
fi

# One word representation for SHA-256: its 32-bit words are native ints
# masked to 32 bits, as ChaCha20's are, never boxed Int32 values.
echo "== lib/hashing does not use Int32 =="
if grep -rn 'Int32' lib/hashing; then
  echo "check.sh: lib/hashing names Int32" >&2
  exit 1
fi

# One execution path: every block runs as a serial fold of
# State.apply_tx, on the sealer and on every replica and replay alike, so
# nothing under lib/chain may name the domain pool.  Leaving
# zebra_parallel out of lib/chain/dune is not enough on its own: dune
# would still let lib/chain reach it through zebra_rsa's dependencies.
echo "== lib/chain does not use Parallel =="
if grep -rn 'Parallel' lib/chain; then
  echo "check.sh: lib/chain names Parallel" >&2
  exit 1
fi

# Transactions declare no access set, as on Ethereum: nothing under lib/
# may read a footprint again (Tx.make_ext keeps a ~footprint argument
# that accepts only the empty list).
echo "== lib/ reads no transaction footprint =="
if grep -rnE '\.footprint|settlement_footprint|apply_tx_traced' lib; then
  echo "check.sh: lib/ reads a transaction footprint" >&2
  exit 1
fi

# The lint's one chain-layer pass is the secret flow (ZL2xx): no secret
# reaches a persisted byte.  A per-kind receipt check could not fire, as
# the deployed scenario settles every transaction or stops, so it stays
# gone, and the lint library does not depend on the chain.
echo "== no tx-kind lint; lib/lint does not use the chain =="
if grep -rnE 'Txlint|Tx_kind|ZL103' lib bin bench; then
  echo "check.sh: lib/, bin/ or bench/ names the tx-kind lint" >&2
  exit 1
fi
if grep -rn 'Zebra_chain' lib/lint; then
  echo "check.sh: lib/lint names Zebra_chain" >&2
  exit 1
fi

# Plain build: the @check alias also runs the suite, which the two forced
# runs below do anyway.
dune build
echo "== tests, ZEBRA_DOMAINS=1 =="
ZEBRA_DOMAINS=1 dune runtest --force
echo "== tests, ZEBRA_DOMAINS=4 =="
ZEBRA_DOMAINS=4 dune runtest --force

# Deterministic-cost gate: re-run the snark, field, lint, chaos and load
# benches and compare every deterministic row -- proof digests,
# constraint counts, allocated bytes, lint counts, chaos settlements and
# heights, the 100-task load run's state root and block/tx counts -- with
# the committed BENCH_*.json exactly (bench/row.ml).
# This is also the lint gate, one analysis per deployed subject: bench
# lint fails on any Error finding in a circuit (ZL0xx) or secret-flow
# codec case (ZL2xx) before it compares a row, and every lint.*.errors
# row is pinned at 0.
# Allocation is counted per domain, so the rows are pinned at
# ZEBRA_DOMAINS=1; the snark rows are checked again at 4 domains, since
# pool size may not change a single proof byte (see DESIGN.md).
echo "== bench check (deterministic rows vs BENCH_*.json) =="
BENCH="./_build/default/bench/main.exe"
ZEBRA_DOMAINS=1 "$BENCH" check snark field lint chaos load
ZEBRA_DOMAINS=4 "$BENCH" check snark

# Chaos, byzantine, index and load-smoke traces against scripts/golden/.
sh scripts/golden.sh
