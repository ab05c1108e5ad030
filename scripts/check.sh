#!/bin/sh
# Local CI gate: build everything, lint every deployed circuit, run the
# whole test suite twice -- once sequential, once over a 4-domain pool --
# then replay the chaos suite at fixed seeds across both pool sizes and
# against the committed outputs in scripts/golden/.  Results must agree:
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

# The chaos, byzantine, index and load-smoke gates below compare each run
# twice: ZEBRA_DOMAINS=1 against =4 (no pool-size dependence), and
# ZEBRA_DOMAINS=1 against the committed output in scripts/golden/ (no
# change that moves both runs the same way).  A change that means to move
# a trace regenerates its golden file and says why.
ZEBRA="./_build/default/bin/zebra.exe"
golden="scripts/golden"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# same GATE EXPECTED ACTUAL: fail GATE unless the two files are identical.
same() {
  if ! diff -u "$2" "$3"; then
    echo "$1 FAILED: $3 differs from $2" >&2
    exit 1
  fi
}

# Chaos gate: each (seed, plan) pair must print the identical fault trace
# and settlement at ZEBRA_DOMAINS=1 and =4 -- the fault schedule may not
# leak pool-size dependence -- and the run itself must keep the chaos
# invariants (the CLI exits non-zero on a violation).
echo "== chaos gate (fixed seeds, pool-size-invariant traces) =="
i=0
for spec in \
  "ci-1|drop=0.15,delay=0.15:2,dup=0.1" \
  "ci-2|crash=1:6-9,drop=0.1,reorder=0.3" \
  "ci-3|delay=1.0:2,lose=0.2,withhold,noinstruct"; do
  seed="${spec%%|*}"
  plan="${spec#*|}"
  i=$((i + 1))
  ZEBRA_DOMAINS=1 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/d1-$i.txt"
  ZEBRA_DOMAINS=4 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/d4-$i.txt"
  same "chaos gate (seed=$seed plan=$plan)" "$tmp/d1-$i.txt" "$tmp/d4-$i.txt"
  same "chaos gate (seed=$seed plan=$plan)" "$golden/chaos-$i.txt" "$tmp/d1-$i.txt"
  echo "seed=$seed plan=$plan: trace identical at 1 and 4 domains and to $golden/chaos-$i.txt"
done

# Byzantine gate: the adversary corpus -- network partitions with
# fork-choice heals, a byzantine miner (reorder / censor / conflicting
# sibling blocks), an eclipsed worker, and a colluding pool attacking the
# majority policy -- at three fixed seeds per class.  Every run must
# settle with ALL chaos invariants intact (the CLI now exits non-zero if
# any of replica agreement, supply conservation, store recovery or
# indexer agreement fails) and print the identical trace at
# ZEBRA_DOMAINS=1 and =4.  Fork choice breaks ties on the tip hash, so
# which branch a seed takes moves whenever root or key bytes do; today
# part-1, part-2 and part-7 adopt the minority branch (a 4-block reorg the
# indexer must survive), part-4 keeps the canonical chain, and byz-20
# adopts a byzantine sibling block.  The check after the loop fails if
# the corpus stops covering all three outcomes.
echo "== byzantine gate (adversary corpus, pool-size-invariant traces) =="
i=0
for spec in \
  "part-1@partition=2|1:6-9" \
  "part-2@partition=2|1:6-9" \
  "part-7@partition=2|1:6-9,drop=0.1" \
  "byz-1@byzmine=1:reorder,drop=0.05" \
  "byz-1@byzmine=2:censor" \
  "byz-20@byzmine=0:fork" \
  "ec-1@eclipse=1:6-9" \
  "ec-2@eclipse=2:6-8" \
  "ec-3@eclipse=1:6-9,drop=0.1" \
  "col-1@collude=1" \
  "col-2@collude=2" \
  "col-3@collude=1,withhold" \
  "part-4@partition=2|1:6-9"; do
  seed="${spec%%@*}"
  plan="${spec#*@}"
  i=$((i + 1))
  ZEBRA_DOMAINS=1 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/byz-d1-$i.txt"
  ZEBRA_DOMAINS=4 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/byz-d4-$i.txt"
  same "byzantine gate (seed=$seed plan=$plan)" "$tmp/byz-d1-$i.txt" "$tmp/byz-d4-$i.txt"
  same "byzantine gate (seed=$seed plan=$plan)" "$golden/byz-$i.txt" "$tmp/byz-d1-$i.txt"
  echo "seed=$seed plan=$plan: trace identical at 1 and 4 domains and to $golden/byz-$i.txt"
done
for outcome in "partition.heal canonical chain kept" "partition.heal fork adopted" \
  "sibling adopted"; do
  if ! grep -q "$outcome" "$tmp"/byz-d1-*.txt; then
    echo "byzantine gate FAILED: no trace in the corpus shows '$outcome'" >&2
    exit 1
  fi
done
echo "byzantine corpus covers a kept heal, an adopted heal and an adopted sibling"

# Index gate: the off-chain event-sourced mirror must rebuild the
# canonical scenario's task/reputation state byte-identically to contract
# storage (the CLI exits non-zero on disagreement), and its decoded event
# log and views must not depend on the pool size.
echo "== index gate (event-sourced mirror, 1 vs 4 domains) =="
ZEBRA_DOMAINS=1 "$ZEBRA" index --events >"$tmp/idx-d1.txt"
ZEBRA_DOMAINS=4 "$ZEBRA" index --events >"$tmp/idx-d4.txt"
same "index gate" "$tmp/idx-d1.txt" "$tmp/idx-d4.txt"
same "index gate" "$golden/index.txt" "$tmp/idx-d1.txt"
echo "zebra index: mirror agrees, identical at 1 and 4 domains and to $golden/index.txt"

# Load-smoke gate: a small N x M marketplace run must complete every task
# with zero invariant violations (the CLI exits non-zero otherwise), its
# final state root must survive a full serial replay from genesis
# (--verify-replay), and its deterministic facts -- root, block/tx counts,
# conflict retries -- must be byte-identical at ZEBRA_DOMAINS=1 and =4:
# the sharded parallel executor may not change a single state byte.
echo "== load-smoke gate (parallel executor, root agreement at 1 vs 4 domains) =="
ZEBRA_DOMAINS=1 "$ZEBRA" load --tasks 4 --requesters 2 --workers 4 --inflight 4 \
  --seed ci-load --verify-replay -q >"$tmp/load-d1.txt"
ZEBRA_DOMAINS=4 "$ZEBRA" load --tasks 4 --requesters 2 --workers 4 --inflight 4 \
  --seed ci-load --verify-replay -q >"$tmp/load-d4.txt"
same "load gate" "$tmp/load-d1.txt" "$tmp/load-d4.txt"
same "load gate" "$golden/load.txt" "$tmp/load-d1.txt"
cat "$tmp/load-d1.txt"
echo "load smoke: identical at 1 and 4 domains and to $golden/load.txt, all invariants held"
