(** ZL1xx — declared-footprint analysis of the transaction layer.

    A transaction may declare the extra addresses its execution touches
    ([Tx.footprint]).  Its {e declared mask} is the set of shards of its
    static footprint (sender, and destination or created address: what it
    touches before any contract logic runs) plus those extras.  No
    runtime consumes the declaration: every block executes serially.
    This pass checks that each deployed kind declares exactly what it
    touches, the way {!Lint.analyze} checks R1CS circuits:

    each {b case} is one representative transaction of a tx kind, executed
    with {!Zebra_chain.State.apply_tx_traced} against its real pre-state
    (side-effect-free: the transaction is rolled back after its shard
    accesses are recorded).  Over the cases of a kind the pass reports

    - {b ZL101 (Error) — soundness}: a recorded access falls outside the
      declared mask.
    - {b ZL102 (Error) — minimality}: a declared extra footprint address
      whose shard is never touched on any analysed path.
    - {b ZL103 (Error) — vacuous case}: a representative case that
      reverted or failed, i.e. the contract branch it was meant to cover
      was never actually explored.
    - {b ZL110 (Info) — shard sets}: the per-kind accessed and declared
      shard sets, so footprint builders
      ([Requester.settlement_footprint], which subtracts the static part
      rather than re-deriving it) can be cross-checked.

    The deployed tx kinds are enumerated by [Zebralancer.Deployed_txs]
    (analogous to [Deployed] for circuits); negative fixtures live in
    [test/test_txlint.ml]. *)

(** One representative transaction of a kind, already executed and traced
    against its pre-state. *)
type case = {
  kind : string;  (** tx kind, e.g. ["zebralancer-task.instruct"] *)
  case : string;  (** variant label, e.g. ["block 9 tx 0"] *)
  tx : Zebra_chain.Tx.t;
  receipt : Zebra_chain.State.receipt;  (** what the execution produced *)
  accessed : string list;  (** state keys touched, first-access order *)
}

(** [trace_case ~kind ~case st ~height tx] builds a case by executing [tx]
    traced (and rolled back) on [st]. *)
val trace_case :
  kind:string -> case:string -> Zebra_chain.State.t -> height:int -> Zebra_chain.Tx.t -> case

(** Analyse the cases of one kind (all must carry [~kind]); the report's
    subject is a {!Lint.Tx_kind}.
    @raise Invalid_argument on an empty or mixed-kind case list. *)
val analyze : kind:string -> case list -> Lint.report

(** Group cases by kind and analyse each; reports in kind order. *)
val analyze_all : case list -> Lint.report list

