(** Seeded chaos scenario: one full crowdsourcing round — Register,
    TaskPublish, AnswerCollection, Reward (or the timeout fallback) plus an
    off-chain data fetch — driven under a [Zebra_faults] plan.

    The scenario is the executable form of the question the fault layer
    exists to answer: does the protocol settle every task with a payout or
    a {e typed} error, never an exception and never a wrong balance, under
    any bounded fault plan?  {!run} returns an {!outcome} that carries the
    settlement, the end-of-run invariant checks (replica agreement, supply
    conservation) and the injected fault {!Zebra_faults.Faults.trace}.

    {b Replayability}: the whole run is a pure function of
    [(seed, plan, workload shape)] — the fault schedule is keyed by the
    seed alone (see [Zebra_faults]) and the workload randomness comes from
    the protocol's own seeded RNG — so [run ~seed ~plan ()] twice yields
    identical outcomes, which is what [zebra chaos] and the chaos CI gate
    assert. *)

(** How the round settled. *)
type settlement =
  | Rewarded of int array
      (** the requester instructed; per-worker reward vector *)
  | Finalized
      (** the timeout fallback paid out (the plan withheld the
          instruction) *)
  | Aborted of Protocol.error
      (** a phase was rejected (a fault reordered or lost a transaction a
          later phase depends on), timed out past the synchrony bound, or
          met a replica failure; a typed error, never an exception *)

type outcome = {
  settlement : settlement;
  final_height : int;
  state_root : string;  (** hex root every live replica agrees on *)
  replicas_agree : bool;
      (** all replicas (crashed ones re-synced) share [state_root] *)
  supply_conserved : bool;
      (** total supply unchanged by the whole round *)
  store_fetch_attempts : int;
      (** fetches (including heals) needed to retrieve the task blob; 0
          when the round aborted before the fetch *)
  store_recovered : bool;
      (** the blob came back intact despite loss/corruption faults, or no
          fetch was made *)
  indexer_events : int;  (** chain events the off-chain indexer decoded *)
  indexer_reorgs : int;
      (** reorgs the indexer survived (partition heals, byzantine forks) *)
  indexer_agrees : bool;
      (** the indexer's event-rebuilt contract state is byte-identical to
          the chain's — the strongest end-of-run consistency oracle *)
  indexer_error : string option;  (** why, when [indexer_agrees] is false *)
  trace : string list;  (** the injected-fault log, oldest first *)
}

val settlement_to_string : settlement -> string

(** Render the outcome the way [zebra chaos] prints it (trace lines, then
    the settlement and invariant summary). *)
val outcome_to_string : outcome -> string

(** [run ~seed ~plan ()] boots a fresh system ([Protocol.create_system
    ~seed]), attaches the fault plan to its network and to a
    content-addressed store holding the task's data blob, and drives one
    round with [n] workers under the {!Protocol.max_attempts} and
    {!Protocol.backoff_blocks} retry bound, an answer window of 20 blocks
    and an instruction window of 12.  If the plan says
    [withhold_worker], the last enrolled worker never submits; if
    [no_instruction], the requester never instructs and the round settles
    through Finalize; [collude=K] makes the last K answering workers
    submit an identical deviant answer; [eclipse=W:F-T] holds worker [W]'s
    submission for the window (every answering worker answers in one
    {!Protocol.answers} phase, and the driver registers the victim's
    one-task wallet with the controller as it hands it out, so the phase
    rebroadcasts the held answer under the retry policy and, if the
    window outlasts the retries, aborts with [Timed_out] of
    ["answer_collection"]).  An off-chain
    {!Zebra_index.Indexer} follows the chain throughout — incremental
    mid-run syncs, reorg detection across partition heals and byzantine
    forks — and the outcome asserts its rebuilt state agrees with the
    contracts byte-for-byte.

    Faults attach once [create_system] has mined the RA deployment
    (height 1), so crash and partition windows start at height 2 or
    later.  A fault-free round with the default [n = 3] ends at height 9:
    four enrollments, the requester's funding and task deployment, one
    block of answers and the reward. *)
val run :
  ?n:int ->
  ?budget:int ->
  seed:string ->
  plan:Zebra_faults.Faults.spec ->
  unit ->
  outcome
