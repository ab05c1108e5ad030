(** The replicated ledger state of one node: externally-owned accounts,
    contract accounts with their serialised storage, and deterministic
    transaction application.

    Failed or reverted transactions are included with a failure receipt and
    roll back all state changes except the sender's nonce (Ethereum-like
    semantics, minus gas payments — the simulated chain does not price gas,
    it only meters it for the benchmarks).  That holds for every failure a
    contract can cause: a [Contract.Revert], a payload that fails to
    decode, and any other exception its behaviour raises.

    A block executes as a fold of {!apply_tx} over its transactions in
    block order, on the sealer and on every replica and replay alike.
    Mutations are journaled, so a failed transaction rolls back exactly.

    {b Sharding.}  The ledger is partitioned into 32 address shards by
    the leading byte of the address, so {!root} can cache one sub-root per
    shard and rehash only the shards written since the last root.

    [State] checks nonces and balances, never signatures: {!Network}
    checks each transaction when it is broadcast and when its block is
    sealed, and [State] executes whatever it is given. *)

type t

type status =
  | Ok of Address.t option  (** payload: created contract address, if any *)
  | Failed of string

type receipt = {
  tx_hash : bytes;
  status : status;
  gas_used : int;
  logs : string list;
}

(** [create ~genesis] funds the given accounts at height 0. *)
val create : genesis:(Address.t * int) list -> t

val balance : t -> Address.t -> int
val nonce : t -> Address.t -> int

(** [contract_storage t addr] is [None] when [addr] has no code. *)
val contract_storage : t -> Address.t -> bytes option

val is_contract : t -> Address.t -> bool

(** Shard index of an address: [0 .. 31]. *)
val shard_of_address : Address.t -> int

(** [apply_tx t ~height tx] executes one transaction.  Never raises on
    bad transactions — every outcome is a receipt. *)
val apply_tx : t -> height:int -> Tx.t -> receipt

(** Canonical state root, compared across nodes after every block.  A
    two-level commitment: each shard's sub-root is SHA-256 of its
    accounts sorted by key, then its contracts sorted by key, each section
    prefixed by its entry count; the root is SHA-256 of the 32 sub-roots
    in shard order.  It therefore depends on the shard count and on
    {!shard_of_address}.  Sub-roots are cached and only the shards written
    since the previous call (by a transaction, a rollback or genesis) are
    rehashed; each one counts once into [chain.state.root.shards_hashed]. *)
val root : t -> bytes

(** Total of all balances (conservation-of-money invariant in tests). *)
val total_supply : t -> int
