(** Marketplace load harness: N requesters and M workers drive many CPLA
    tasks end-to-end, concurrently, against one simulated chain.

    Each task is a pipeline of {!Protocol.phase}s — fund the requester's
    one-task wallet, publish the contract, collect [workers_per_task]
    anonymous submissions from unfunded one-task wallets, send the proved
    reward instruction — and the scheduler keeps up to [inflight] tasks in
    flight, mining one block per round and {!Protocol.poll}ing every
    task's phase after it, so every block mixes phases from unrelated
    tasks and the protocol's one retry rule confirms them all.  Phases carry distinct
    inclusion fees (funding 3, instruct 2, publish 1, submissions 0) to
    exercise the fee-ordered mempool.

    All randomness comes from the system seed, so everything except the
    wall-clock timings — roots, block/tx counts, failures — is
    deterministic and must be identical at any [ZEBRA_DOMAINS] (the CI
    load-smoke gate diffs exactly that).

    Settle latency runs from the task's funding broadcast to its reward
    receipt.  Each one is observed into the [load.settle]
    {!Zebra_obs.Obs.Histogram}; completions and failures bump
    [load.tasks.completed] / [load.tasks.failed]. *)

type config = {
  requesters : int;  (** size of the requester identity pool *)
  workers : int;  (** size of the worker identity pool *)
  tasks : int;  (** total tasks to run *)
  workers_per_task : int;  (** submissions per task (the contract arity) *)
  inflight : int;  (** max tasks concurrently in the pipeline *)
  budget : int;  (** per-task budget *)
  seed : string;
}

(** 4 requesters, 8 workers, 20 tasks of 2 submissions, 8 in flight,
    budget 60.  The chain runs [Protocol.create_system]'s 3 replicas. *)
val default_config : config

type report = {
  tasks_completed : int;
  tasks_failed : int;
  failures : (int * string) list;  (** (task index, reason), ascending *)
  blocks : int;
  txs : int;
  elapsed_s : float;
  tasks_per_sec : float;
  txs_per_sec : float;
  settle_p50_s : float;
      (** nearest-rank over the run's exact settle latencies (the
          [load.settle] histogram is too coarse for percentiles) *)
  settle_p99_s : float;
  state_root : string;  (** final root, hex *)
  replicas_agree : bool;
  supply_conserved : bool;
  replay_matches : bool;
      (** a serial re-execution of the whole chain from genesis reaches
          [state_root] — a check that costs a small fraction of the run *)
  indexer_agrees : bool;
      (** the event-sourced {!Zebra_index.Indexer} mirror is byte-identical
          to the chain's contract state after the run *)
}

(** [run ~config ()] drives the whole workload and reports.  Raises only
    on configuration errors or harness bugs — per-task on-chain failures
    land in [failures]. *)
val run : ?config:config -> unit -> report

(** The report's deterministic facts, one per line — byte-identical across
    [ZEBRA_DOMAINS] settings. *)
val render_deterministic : report -> string

(** The wall-clock metrics, one ["# "]-prefixed line each. *)
val render_timing : report -> string

(** No failures and every invariant held. *)
val ok : report -> bool
