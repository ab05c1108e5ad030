(** The simulated blockchain network: several fully-replicating nodes, a
    shared mempool, and a discrete block clock.

    This provides exactly the ideal-public-ledger abstraction of the paper's
    Section III: (1) a valid transaction submitted to the network is
    included in the next mined block (liveness under synchrony); (2) every
    live node executes every block deterministically and the simulator
    asserts their state roots agree (correct computation); (3) anyone can
    read all state (transparency); and (4) a network adversary may reorder
    the transactions of a pending block ({!set_adversary}) but cannot forge
    signatures.

    {b Fault injection} relaxes (1): a mempool fault pipeline
    ({!set_mempool_fault}) can drop, delay, duplicate or reorder pending
    transactions, and replicas can be crashed for a block range and
    re-synced ({!crash_node}, {!restart_node}).  [Zebra_faults] builds
    deterministic, seed-keyed pipelines over these hooks. *)

type t

exception Consensus_failure of string

(** A mempool fault pipeline, applied to the candidate transactions of each
    block being mined: returns the transactions to include now plus
    [(release_height, tx)] pairs to hold back.  Held-back transactions
    rejoin the candidates of the first block at or after their release
    height (and run through the pipeline again). *)
type mempool_fault = height:int -> Tx.t list -> Tx.t list * (int * Tx.t) list

(** [create ~num_nodes ~genesis ()] — all nodes start from the same
    funded genesis state. *)
val create : num_nodes:int -> genesis:(Address.t * int) list -> unit -> t

val num_nodes : t -> int

(** Current chain height (0 = genesis, before any block). *)
val height : t -> int

(** Why a submission was refused (mirrors the [Protocol.error] style). *)
type submit_error = Invalid_signature

val submit_error_to_string : submit_error -> string

(** [submit_r t tx] broadcasts to the mempool.  An invalidly-signed
    transaction ({!Tx.validate}) is rejected here and never enters the
    mempool; the sealer checks it once more (see {!exec_result}).

    The mempool is {e fee-ordered} at seal time: each block takes the
    pending transactions highest-[Tx.fee] first (stable on arrival order,
    with every sender's transactions kept in nonce order so a sender can
    never wedge itself).  Transactions released from a fault-pipeline
    delay are exempt — they go ahead of the fee-ordered fresh mempool. *)
val submit_r : t -> Tx.t -> (unit, submit_error) result

(** Raising wrapper around {!submit_r}, kept for source compatibility.
    New code should prefer {!submit_r} (typed errors compose with the
    [Protocol] retry drivers).
    @raise Invalid_argument on an invalidly-signed transaction. *)
val submit : t -> Tx.t -> unit

val pending : t -> int

(** Transactions currently held back by the fault pipeline. *)
val delayed : t -> int

(** [set_adversary t f] lets [f] reorder the pending transactions of each
    block before execution; the network re-slots each sender's into nonce
    order, since a block that ran a later nonce first would be invalid.
    The adversary may also duplicate or omit transactions, but gains
    nothing by either: a duplicate is rejected by nonce replay when it
    executes (the first execution's receipt is canonical), and an omitted
    transaction stays pending for a later block — the adversary can delay
    but not censor.  Invalidly-signed injections are filtered by the
    miner.  [None] restores first-come-first-served order. *)
val set_adversary : t -> (Tx.t list -> Tx.t list) option -> unit

(** [set_mempool_fault t f] installs (or, with [None], removes) the fault
    pipeline run on every block's fresh mempool transactions before the
    adversary and the miner see them.  Dropped transactions are gone — the
    network lost the broadcast; clients must resubmit (see [Protocol]'s
    retry drivers).  Postponed transactions rejoin at their release height
    {e ahead} of the fresh mempool and are exempt from further fault
    decisions, so a delay fault holds a transaction back exactly its k
    blocks (bounded delay, never censorship). *)
val set_mempool_fault : t -> mempool_fault option -> unit

(** [set_block_hook t f] — [f ~height] fires at the start of mining block
    [height], before execution, so a fault controller can apply scheduled
    node crashes/restarts effective that height.  The hook must not mine:
    {!mine_ext} raises [Consensus_failure] when the tip moved under it. *)
val set_block_hook : t -> (height:int -> unit) option -> unit

(** [crash_node t ~node] takes a replica down: it stops executing blocks
    and its state goes stale until {!restart_node}.  Idempotent.
    @raise Invalid_argument if [node] is the last live replica outside an
    active partition's minority: one must stay up to mine and serve
    reads. *)
val crash_node : t -> node:int -> unit

(** [restart_node t ~node] brings a crashed replica back through the one
    re-sync rule heals and adopted siblings also use: it applies the
    blocks mined while it was down, or replays from genesis if a reorg
    orphaned a block it executed, and must land on the tip header's state
    root.  Idempotent on live nodes.
    @raise Consensus_failure if the re-synced root diverges. *)
val restart_node : t -> node:int -> unit

val node_up : t -> int -> bool

(** {1 Partitions, forks and reorgs}

    A network partition splits the replicas into a majority side, which
    keeps the mempool and mines the candidate branch, and a minority side
    that executes nothing: cut off from the mempool, its branch would
    hold only empty blocks, and an empty block changes no state.  The
    heal builds that branch off the last common block, one block per
    tick on which a minority replica was up, each carrying the fork
    point's state root.

    Heals and byzantine siblings ({!fork_tip}) share one {e fork choice}:
    the longer branch wins, equal lengths go to the lexicographically
    smaller tip hash.  On adoption the orphaned transactions rejoin the
    front of the mempool and receipts and logs are rebuilt from one
    replay of the adopted chain.  Then every live replica re-syncs by the
    rule restarts use: one that executed orphaned blocks replays from
    genesis, any other applies the blocks above its last one, and each
    must land on the tip header's state root. *)

(** [start_partition t ~minority] cuts the given replica ids off from the
    mempool and the majority branch, starting with the next mined block.
    @raise Invalid_argument if a partition is already active, [minority]
    is empty or covers all nodes, contains node 0 (the canonical read
    replica stays on the majority side), names an unknown node, or leaves
    no live replica outside it (one must stay up to mine and serve
    reads). *)
val start_partition : t -> minority:int list -> unit

val partition_active : t -> bool

type heal_report = {
  adopted_fork : bool;  (** the minority branch won the fork choice *)
  reorged_blocks : int;  (** majority blocks orphaned by the adoption *)
  requeued_txs : int;  (** orphaned transactions returned to the mempool *)
}

(** [heal_partition t] reconnects the sides, builds the minority's empty
    branch, runs the fork choice and re-syncs every live replica: after a
    kept heal the minority applies the majority blocks above the fork
    point, after an adopted one the majority replays from genesis.  The
    chain height never decreases.
    @raise Invalid_argument if no partition is active.
    @raise Consensus_failure if a re-synced root diverges. *)
val heal_partition : t -> heal_report

(** [fork_tip t ~permute] lets a byzantine miner propose a conflicting
    sibling of the current tip: same parent and height, transactions
    permuted by [permute] and kept in nonce order per sender.  The heal's
    fork choice adopts it — a one-block reorg, after which every live
    replica replays from genesis — exactly when its hash is smaller.
    Like {!mine_ext}, it seals only candidates that pass {!Tx.validate}:
    a forged transaction [permute] adds is dropped.
    Returns [None] when there is nothing to fork (empty chain, active
    partition, or an identity permutation), otherwise [Some adopted].
    @raise Consensus_failure if a re-synced root diverges. *)
val fork_tip : t -> permute:(Tx.t list -> Tx.t list) -> bool option

(** State root of node [i] (stale while the node is down) — lets tests
    assert per-replica agreement. *)
val node_state_root : t -> int -> bytes

(** Per-transaction outcome of sealing a block (candidate order):
    [Applied] executed, with its receipt; [Rejected] failed the sealer's
    {!Tx.validate} and never executed: the fault pipeline and the
    adversary can put a transaction in front of the sealer that never
    passed {!submit_r}.  Replicas and replays execute the sealed block
    unchecked.  [Conflict_retry] is never produced: every block executes
    serially.  It stays for the callers that match on it. *)
type exec_result =
  | Applied of State.receipt
  | Conflict_retry of State.receipt
  | Rejected of string

(** [mine_ext t] seals the fee-ordered mempool into the next block,
    executes its transactions one after another in block order on every
    live node (the fold of {!State.apply_tx} every replay also runs),
    checks that their state roots agree and returns the typed
    per-candidate outcomes (receipts from the first live node).
    @raise Consensus_failure if replicas diverge or the block hook mined. *)
val mine_ext : t -> exec_result list

(** [mine t] is {!mine_ext} returning only the executed receipts, kept for
    source compatibility.  New code should prefer {!mine_ext}.
    @raise Consensus_failure if replicas diverge. *)
val mine : t -> State.receipt list

(** [mine_until t ~height] mines (possibly empty) blocks up to [height]. *)
val mine_until : t -> height:int -> unit

(** {1 Read-only views (first live node)} *)

val balance : t -> Address.t -> int
val nonce : t -> Address.t -> int
val contract_storage : t -> Address.t -> bytes option
val is_contract : t -> Address.t -> bool

(** Receipt by transaction hash, once mined.  Per hash, the first
    execution's receipt wins: a faulty duplicate's nonce-replay failure
    does not shadow the canonical outcome. *)
val receipt : t -> bytes -> State.receipt option

val blocks : t -> Block.t list

(** The genesis allocation the network was created with — lets a replayer
    (e.g. a follower network booted on it) rebuild the pre-state of any
    mined transaction with {!State.create}. *)
val genesis : t -> (Address.t * int) list

(** Sum of balances across all accounts (conservation invariant). *)
val total_supply : t -> int

(** [replay t] rebuilds the ledger from genesis by re-executing every block
    on a fresh state and returns its root — a late-joining node's sync
    path.  Determinism means it must equal the live nodes' root. *)
val replay : t -> bytes

(** Current state root of the first live node. *)
val state_root : t -> bytes

(** All logs emitted so far, oldest first (test/diagnostic helper). *)
val all_logs : t -> string list
