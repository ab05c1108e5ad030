#!/bin/sh
# Golden-trace gate: replay the chaos, byzantine, index and load-smoke
# runs at fixed seeds and diff every output against the committed one in
# scripts/golden/.  It answers "did any trace move?" on its own in a few
# minutes; scripts/check.sh runs it after the test suite and the digest
# gates.
set -eu
cd "$(dirname "$0")/.."
dune build bin/zebra.exe

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
# fired GATE PLAN TRACE: fail GATE unless TRACE shows an event of every
# fault class PLAN names (bench/main.ml's chaos rows use the same map);
# a spec whose fault never fires tests nothing and is re-seeded.
fired() {
  for clause in $(echo "$2" | tr ',' ' '); do
    case "${clause%%=*}" in
      drop | delay | dup | reorder) event="mempool.${clause%%=*}" ;;
      lose | corrupt) event="store.${clause%%=*}" ;;
      crash) event="node.crash" ;;
      partition) event="partition.start" ;;
      byzmine) event="byzmine.${clause##*:}" ;;
      eclipse) event="eclipse.hold" ;;
      *) continue ;;
    esac
    if ! grep -qE "^  (h|op)=[0-9]+ $event " "$3"; then
      echo "$1 FAILED: plan $2 names ${clause%%=*} but the trace shows no $event event" >&2
      exit 1
    fi
  done
}

# Chaos gate: each (seed, plan) pair must print the identical fault trace
# and settlement at ZEBRA_DOMAINS=1 and =4 -- the fault schedule may not
# leak pool-size dependence -- and the run itself must keep the chaos
# invariants (the CLI exits non-zero on a violation).
echo "== chaos gate (fixed seeds, pool-size-invariant traces) =="
i=0
for spec in \
  "ci-7|drop=0.15,delay=0.15:2,dup=0.1" \
  "ci-6|crash=1:5-8,drop=0.1,reorder=0.3" \
  "ci-3|delay=1.0:2,lose=0.2,withhold,noinstruct"; do
  seed="${spec%%|*}"
  plan="${spec#*|}"
  i=$((i + 1))
  ZEBRA_DOMAINS=1 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/d1-$i.txt"
  ZEBRA_DOMAINS=4 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/d4-$i.txt"
  same "chaos gate (seed=$seed plan=$plan)" "$tmp/d1-$i.txt" "$tmp/d4-$i.txt"
  same "chaos gate (seed=$seed plan=$plan)" "$golden/chaos-$i.txt" "$tmp/d1-$i.txt"
  fired "chaos gate (seed=$seed)" "$plan" "$tmp/d1-$i.txt"
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
# which branch a seed takes moves whenever root, key or tx bytes do;
# today part-1 and part-13 adopt the minority branch (a 4-block reorg the
# indexer must survive), part-2 and part-4 keep the canonical chain, and
# byz-34 and byz-35 adopt a byzantine sibling of the answers block.
# byz-34's sibling lands after the reward instruction was proved, so the
# requester proves it again over the adopted order; byz-35's withheld
# worker defers the instruction past the fork.  The check after the loop
# fails if the corpus stops covering all three outcomes or the chaos
# traces stop showing a crash restart (ci-6 holds the only one) -- the
# four callers of Network's one re-sync rule -- or if a partition heal
# or crash restart falls after the round, where Faults.finish marks it
# "(end of run)".
echo "== byzantine gate (adversary corpus, pool-size-invariant traces) =="
i=0
for spec in \
  "part-1@partition=2|1:5-8" \
  "part-2@partition=2|1:5-8" \
  "part-13@partition=2|1:5-8,drop=0.1" \
  "byz-3@byzmine=1:reorder,drop=0.05" \
  "byz-1@byzmine=2:censor" \
  "byz-34@byzmine=0:fork" \
  "byz-35@byzmine=0:fork,withhold" \
  "ec-1@eclipse=1:6-9" \
  "ec-2@eclipse=2:6-8" \
  "ec-14@eclipse=1:6-9,drop=0.1" \
  "col-1@collude=1" \
  "col-2@collude=2" \
  "col-3@collude=1,withhold" \
  "part-4@partition=2|1:5-8"; do
  seed="${spec%%@*}"
  plan="${spec#*@}"
  i=$((i + 1))
  ZEBRA_DOMAINS=1 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/byz-d1-$i.txt"
  ZEBRA_DOMAINS=4 "$ZEBRA" chaos --seed "$seed" --plan "$plan" >"$tmp/byz-d4-$i.txt"
  same "byzantine gate (seed=$seed plan=$plan)" "$tmp/byz-d1-$i.txt" "$tmp/byz-d4-$i.txt"
  same "byzantine gate (seed=$seed plan=$plan)" "$golden/byz-$i.txt" "$tmp/byz-d1-$i.txt"
  fired "byzantine gate (seed=$seed)" "$plan" "$tmp/byz-d1-$i.txt"
  echo "seed=$seed plan=$plan: trace identical at 1 and 4 domains and to $golden/byz-$i.txt"
done
for outcome in "partition.heal canonical chain kept" "partition.heal fork adopted" \
  "sibling adopted"; do
  if ! grep -q "$outcome" "$tmp"/byz-d1-*.txt; then
    echo "byzantine gate FAILED: no trace in the corpus shows '$outcome'" >&2
    exit 1
  fi
done
if ! grep -q "node\.restart node=[0-9]* resync=ok" "$tmp"/d1-*.txt; then
  echo "chaos gate FAILED: no chaos trace shows a 'node.restart ... resync=ok'" >&2
  exit 1
fi
if grep -l "(end of run)" "$tmp"/d1-*.txt "$tmp"/byz-d1-*.txt; then
  echo "byzantine gate FAILED: the trace(s) above heal a partition or restart a node after the round (end of run)" >&2
  exit 1
fi
echo "corpus covers a kept heal, an adopted heal, an adopted sibling and a crash restart"
echo "every partition heal and crash restart happens inside its round"

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
# final state root must survive the full serial replay from genesis that
# every load run ends with, and its deterministic facts -- root and
# block/tx counts -- must be byte-identical at ZEBRA_DOMAINS=1 and =4:
# the pool size may not change a single state byte.
echo "== load-smoke gate (root agreement at 1 vs 4 domains) =="
ZEBRA_DOMAINS=1 "$ZEBRA" load --tasks 4 --requesters 2 --workers 4 --inflight 4 \
  --seed ci-load -q >"$tmp/load-d1.txt"
ZEBRA_DOMAINS=4 "$ZEBRA" load --tasks 4 --requesters 2 --workers 4 --inflight 4 \
  --seed ci-load -q >"$tmp/load-d4.txt"
same "load gate" "$tmp/load-d1.txt" "$tmp/load-d4.txt"
same "load gate" "$golden/load.txt" "$tmp/load-d1.txt"
cat "$tmp/load-d1.txt"
echo "load smoke: identical at 1 and 4 domains and to $golden/load.txt, all invariants held"
