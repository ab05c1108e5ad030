(** The shared seeded end-to-end scenario fixture.

    One canonical marketplace run: two tasks (one settled by the
    requester's Instruct, one by the third-party Finalize fallback, both
    with a refund branch) and a complete reputation-board lifecycle
    (deploy, credit, zero-knowledge link claim, epoch advance).  Every
    transaction kind the protocol can put on chain appears at least once.

    [Deployed_txs] scans it for secrets, the indexer tests replay it as
    ground truth, and [zebra index] demos against it — one builder, no
    clones.  The build is deterministic in [seed]: same seed,
    byte-identical chain. *)

type t = {
  sys : Protocol.system;
  requester : Protocol.identity;
  w1 : Protocol.identity;
  w2 : Protocol.identity;
  task_a : Requester.task;  (** settled by Instruct *)
  task_b : Requester.task;  (** settled by Finalize *)
  board : Zebra_chain.Address.t;  (** the reputation board contract *)
  rep : Reputation.params;  (** the board's link-proof circuit keys *)
}

(** Build the scenario on a fresh system (default seed:
    ["deployed-txs/lint-scenario-v1"] — the lint corpus seed). *)
val build : ?seed:string -> unit -> t

val default_seed : string
