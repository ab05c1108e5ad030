(** Off-chain chain-event indexer: the read-scaling subsystem.

    The paper's open-blockchain setting makes all protocol state public,
    but reading it straight off the replicas does not scale to many
    queriers.  This module rebuilds contract state {e purely from chain
    events} — blocks and canonical receipts — by mirror-executing every
    successful transaction against the same registered contract behaviours
    the replicas run ({!Zebra_chain.Contract}).  Because execution is
    deterministic, the mirror must land on byte-identical storage and the
    same balances as the chain itself, which makes the indexer double as
    the strongest consistency oracle the repo has: [Chaos.run] and
    [Load.run] assert {!agrees} after every plan.

    {b Cursors.}  {!sync} is incremental: a cursor (height, block hash)
    marks how far the indexer has read, and only newer blocks are applied
    on the next call.  If the block under the cursor is no longer on the
    canonical chain — a partition heal or a byzantine sibling adopted a
    different branch — the indexer emits {!Reorged}, resets and re-indexes
    from genesis: chain events are the only source of truth, so nothing
    derived from an abandoned branch survives.

    {b Subscriptions.}  {!subscribe} registers webhook-style callbacks
    fired synchronously for every decoded event (deploys, calls,
    transfers, logs, reorgs), in chain order.

    {b Dedup.}  Fault injection can mine the same transaction twice; the
    copy fails nonce replay on chain and the first receipt is canonical.
    The indexer applies each transaction hash once, at first occurrence,
    matching those semantics. *)

module Address = Zebra_chain.Address

(** A decoded chain event ([tx] fields are short hash prefixes). *)
type event =
  | Deployed of { height : int; addr : Address.t; behavior : string; tx : string }
  | Called of { height : int; addr : Address.t; behavior : string; sender : Address.t; tx : string }
  | Transferred of { height : int; source : Address.t; dest : Address.t; amount : int }
  | Logged of { height : int; addr : Address.t; line : string }
  | Reorged of { height : int }  (** cursor invalidated; re-indexed from genesis *)

val event_to_string : event -> string

type t

(** A fresh indexer with its cursor at genesis. *)
val create : unit -> t

(** [(height, block_hash_hex)] of the last block applied (genesis hash at
    height 0 before any sync). *)
val cursor : t -> int * string

(** [sync t net] catches the indexer up to [net]'s tip (validating the
    cursor against the canonical chain first; see the reorg rules above)
    and returns the number of blocks applied. *)
val sync : t -> Zebra_chain.Network.t -> int

(** [subscribe t f] — [f] fires synchronously on every event emitted by
    subsequent {!sync} calls, in chain order. *)
val subscribe : t -> (event -> unit) -> unit

(** All events emitted so far, oldest first. *)
val events : t -> event list

val event_count : t -> int

(** How many reorgs this indexer has survived ({!Reorged} emissions). *)
val reorg_count : t -> int

(** Mirror storage / balance of a contract, if tracked. *)
val storage : t -> Address.t -> bytes option

val balance : t -> Address.t -> int option

(** Registered behaviour name of a tracked contract. *)
val behavior : t -> Address.t -> string option

(** Tracked contract addresses, sorted by hex (deterministic order). *)
val contract_addresses : t -> Address.t list

(** The consistency oracle: [Ok ()] iff every tracked contract's mirror
    storage is byte-identical to the chain's, balances agree, and mirror
    execution never diverged.  The first (deterministically ordered)
    problem is reported otherwise. *)
val check : t -> Zebra_chain.Network.t -> (unit, string) result

val agrees : t -> Zebra_chain.Network.t -> bool
