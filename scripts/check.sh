#!/bin/sh
# Local CI gate: build everything, lint every deployed circuit, run the
# whole test suite twice -- once sequential, once over a 4-domain pool --
# then replay the chaos suite at fixed seeds across both pool sizes and
# against the committed outputs in scripts/golden/ (scripts/golden.sh,
# which also runs on its own).  Results must agree:
# the parallel primitives guarantee bit-identical output at any
# ZEBRA_DOMAINS (see DESIGN.md), the fault schedule is keyed by the seed
# alone, and this is where both contracts are enforced.
set -eu
cd "$(dirname "$0")/.."
dune build @check
echo "== circuit lint (zebra lint --strict) =="
dune exec bin/zebra.exe -- lint --strict
# Chain-layer gate: every deployed tx kind must declare a sound and
# minimal footprint (ZL1xx), and no secret canary may appear in any
# persisted output -- tx bytes, contract storage, logs, obs export, vk
# encodings, store round-trips (ZL2xx).
echo "== tx lint (zebra lint --tx --strict) =="
dune exec bin/zebra.exe -- lint --tx --strict
echo "== tests, ZEBRA_DOMAINS=1 =="
ZEBRA_DOMAINS=1 dune runtest --force
echo "== tests, ZEBRA_DOMAINS=4 =="
ZEBRA_DOMAINS=4 dune runtest --force

# Snark digest gate: the canonical reward-circuit proof digest (bench
# snark-digest) must be one and the same bytes at ZEBRA_DOMAINS 1 and 4 --
# pool size may not change a single proof byte (see DESIGN.md).
echo "== snark digest gate (reward digest x domains) =="
BENCH="./_build/default/bench/main.exe"
dune build bench/main.exe
digest_ref=""
for domains in 1 4; do
  d="$(ZEBRA_DOMAINS=$domains "$BENCH" snark-digest)"
  if [ -z "$digest_ref" ]; then
    digest_ref="$d"
  elif [ "$d" != "$digest_ref" ]; then
    echo "snark gate FAILED: digest differs at ZEBRA_DOMAINS=$domains" >&2
    echo "  expected $digest_ref" >&2
    echo "  got      $d" >&2
    exit 1
  fi
  echo "ZEBRA_DOMAINS=$domains: digest $d"
done

# Hash composition gate: the deployed default is Poseidon; its CPLA
# attestation digest is pinned in bench/main.ml and must be the same
# bytes at ZEBRA_DOMAINS 1 and 4.  The MiMC ablation arm is checked once
# -- it must still prove and must NOT produce the Poseidon digest (the
# arms really are different circuits).
echo "== hash composition gate (cpla poseidon digest x domains) =="
cpla_ref="5a4895c25784fefa60837b1c2732e9e40b23d01aefad767c78bea9d6ce3259c7"
for domains in 1 4; do
  d="$(ZEBRA_DOMAINS=$domains "$BENCH" snark-digest cpla-poseidon)"
  if [ "$d" != "$cpla_ref" ]; then
    echo "composition gate FAILED: cpla-poseidon digest moved at ZEBRA_DOMAINS=$domains" >&2
    echo "  expected $cpla_ref" >&2
    echo "  got      $d" >&2
    exit 1
  fi
  echo "ZEBRA_DOMAINS=$domains: cpla-poseidon digest $d"
done
dm="$("$BENCH" snark-digest cpla-mimc)"
if [ "$dm" = "$cpla_ref" ]; then
  echo "composition gate FAILED: mimc arm produced the poseidon digest" >&2
  exit 1
fi
echo "cpla-mimc ablation arm proves, digest $dm"

# Field-kernel gate: the zero-allocation Montgomery kernel bench is
# self-asserting -- it exits non-zero if any in-place kernel falls below
# the committed allocation-reduction floor against its pure counterpart
# (bench/main.ml, field_alloc_floor).  Run under ZEBRA_DOMAINS=1 so
# Gc.allocated_bytes attributes the whole prove to one domain.  The
# digest x domains gates above already pin the kernels' bit-identity;
# this one pins their allocation profile.
echo "== field kernel gate (in-place kernels stay allocation-free) =="
ZEBRA_DOMAINS=1 "$BENCH" field

# Chaos, byzantine, index and load-smoke traces against scripts/golden/.
sh scripts/golden.sh
