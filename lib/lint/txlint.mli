(** ZL103 — coverage of the transaction layer's representative cases.

    Each {b case} is one representative transaction of a tx kind with the
    receipt its execution produced against its real pre-state.  A case
    that reverted or failed never explored the contract branch it was
    meant to cover, so over the cases of a kind the pass reports

    - {b ZL103 (Error) — vacuous case}: a representative case whose
      receipt is a failure.

    The deployed tx kinds are enumerated by [Zebralancer.Deployed_txs]
    (analogous to [Deployed] for circuits); negative fixtures live in
    [test/test_txlint.ml]. *)

(** One representative transaction of a kind, by the receipt of its
    execution against its pre-state. *)
type case = {
  kind : string;  (** tx kind, e.g. ["zebralancer-task.instruct"] *)
  case : string;  (** variant label, e.g. ["block 9 tx 0"] *)
  receipt : Zebra_chain.State.receipt;  (** what the execution produced *)
}

(** Analyse the cases of one kind (all must carry [~kind]); the report's
    subject is a {!Lint.Tx_kind}.
    @raise Invalid_argument on an empty or mixed-kind case list. *)
val analyze : kind:string -> case list -> Lint.report

(** Group cases by kind and analyse each; reports in kind order. *)
val analyze_all : case list -> Lint.report list
