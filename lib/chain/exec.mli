(** Parallel block execution over the sharded {!State}.

    Block-STM-lite: each transaction's footprint (sender, destination or
    created address, plus the extras declared in [Tx.footprint]) maps to a
    bitmask of state shards.  Transactions are scheduled into {e waves} —
    within a wave all masks are pairwise disjoint, across waves each
    transaction runs after the latest earlier transaction it conflicts
    with — and each wave runs on the {!Zebra_parallel} pool.  Per shard,
    execution therefore follows block order exactly, so results are
    bit-identical to serial execution.

    A transaction whose execution touches a shard outside its mask (an
    under-declared footprint) is aborted and rolled back by {!State}
    before the foreign shard is read; the whole block is then undone and
    re-executed serially.  Both the schedule and escape detection depend
    only on the block contents, never on the pool size, so state roots
    agree at any [ZEBRA_DOMAINS]. *)

(** Just the static part (sender, destination / created address) — what a
    transaction touches {e before} any contract logic runs.  A declared
    [Tx.footprint] only needs to cover accesses beyond these; footprint
    builders (e.g. [Requester.settlement_footprint]) subtract them rather
    than re-deriving the rule by hand, and the ZL1xx lint asserts the
    combination is exactly sound and minimal. *)
val static_footprint : Tx.t -> Address.t list

(** Shard bitmask of every address a transaction may touch,
    {!static_footprint} plus its declared [Tx.footprint] (bit [s] =
    touches shard [s]). *)
val shard_mask : Tx.t -> int

(** [apply_block st ~height txs] executes one block's transactions and
    returns, in block order, each receipt paired with [true] when that
    transaction escaped its declared footprint and was re-executed in the
    serial fallback (the [Conflict_retry] classification).  Equivalent to
    folding {!State.apply_tx} over [txs]. *)
val apply_block : State.t -> height:int -> Tx.t list -> (State.receipt * bool) list
