(** Deterministic, seed-driven fault injection for the simulated stack.

    The paper argues its guarantees (Section III's ideal-ledger
    assumptions; Theorem 1) under a synchronous, well-behaved network.
    This module is the adversarial weather that tests those arguments: a
    {e fault plan} ({!spec}) names which faults exist and at what rates,
    and a {!t} controller turns the plan into concrete injections against a
    {!Zebra_chain.Network} (mempool drop / delay-by-k-blocks / duplicate /
    reorder, and replica crash + re-sync over scheduled block ranges) and a
    {!Zebra_store.Store} (probabilistic chunk loss / corruption).

    {b Determinism.}  Every decision is one ChaCha20 block keyed by the
    controller's seed with a nonce naming the decision site and its
    coordinates on the discrete block clock — a pure function of
    [(seed, site, height, index)].  A chaos run is therefore replayable
    from the [(seed, plan)] pair alone ([zebra chaos --seed S --plan P]
    prints the identical fault {!trace} every time), and the schedule is
    invariant under [ZEBRA_DOMAINS] because no decision reads the
    protocol's RNG stream or the domain pool.

    {b Synchrony bound.}  Delay faults hold a transaction back a fixed
    [k] blocks; [Protocol]'s retry drivers ride out any fault plan whose
    [k] is within their backoff window, and report a typed
    [Timed_out] / [Node_down] error past it — never an exception.

    Participant-level faults (a worker who registers but withholds her
    submission, a requester who never sends the reward instruction) are
    plan {e flags} ({!field-withhold_worker}, {!field-no_instruction});
    they are acted on by the scenario driver ([Zebralancer.Chaos]), not by
    this controller, since they are protocol behaviours rather than
    substrate faults. *)

(** Take replica [node] down for blocks [from_height..to_height]
    inclusive; it re-syncs from peers before block [to_height + 1]. *)
type crash_window = { node : int; from_height : int; to_height : int }

(** Split the replicas [p_majority]|[p_minority] over blocks
    [p_from..p_to]: the minority side (always the last [p_minority]
    replica ids — node 0 stays canonical) is cut off from the mempool and
    mines empty blocks on its own branch; the heal at [p_to + 1] runs the
    network's fork choice (longest chain, ties to the smaller tip hash)
    and replays the losing branch's transactions.  The two side counts
    must sum to the network's node count, or the start is refused (traced,
    not raised).  Windows must not overlap each other or crash windows. *)
type partition_window = { p_majority : int; p_minority : int; p_from : int; p_to : int }

(** What the byzantine miner does with the blocks it seals:
    [Byz_reorder] shuffles the scheduled transactions (coin 0.5 per
    block), [Byz_censor] omits transactions from the block (coin 0.3 per
    slot; the network requeues them — bounded delay, not censorship),
    [Byz_fork] mines a conflicting sibling of the tip with shuffled
    transactions (coin 0.25 per block) and lets the fork choice decide —
    an adopted sibling is a depth-1 reorg. *)
type byz_mode = Byz_reorder | Byz_censor | Byz_fork

(** Eclipse worker [victim] for blocks [e_from..e_to]: the adversary owns
    all the victim's links, so every transaction the victim broadcasts in
    the window is held (deterministically, no coin) until the eclipse
    lifts, then released through the delay-exemption path.  The scenario
    driver maps the victim index to a concrete sender via
    {!set_eclipsed}. *)
type eclipse_window = { victim : int; e_from : int; e_to : int }

(** A fault plan.  All probabilities are per decision (per transaction per
    block for mempool faults, per object fetch for store faults). *)
type spec = {
  drop : float;  (** broadcast lost; the sender must resubmit *)
  delay : float;  (** held back [delay_blocks] blocks, then re-offered *)
  delay_blocks : int;  (** the synchrony bound k of delay faults *)
  duplicate : float;  (** included twice; the copy fails nonce replay *)
  reorder : float;  (** per block: shuffle the included transactions *)
  store_lose : float;  (** chunk deleted; heals on re-[put] *)
  store_corrupt : float;  (** chunk byte-flipped; detected, heals on re-[put] *)
  crashes : crash_window list;
  partitions : partition_window list;
  byzmine : (int * byz_mode) option;  (** the byzantine miner, at most one *)
  eclipses : eclipse_window list;
  collude : int;
      (** the last K answering workers submit an identical deviant answer,
          attacking the majority reward policy (scenario-driver flag, like
          [withhold_worker]) *)
  withhold_worker : bool;  (** one enrolled worker never submits *)
  no_instruction : bool;  (** the requester never instructs; timeout path *)
}

(** The all-zero plan (prints as ["none"]). *)
val none : spec

(** Parse the plan DSL: comma-separated
    [drop=P | delay=P:K | dup=P | reorder=P | lose=P | corrupt=P |
     crash=NODE:FROM-TO | partition=A|B:FROM-TO |
     byzmine=NODE:reorder|censor|fork | eclipse=WORKER:FROM-TO |
     collude=K | withhold | noinstruct]
    (empty or ["none"] is {!none}; [crash], [partition] and [eclipse]
    clauses may repeat; [byzmine] may not).
    @raise Invalid_argument on malformed or out-of-range clauses. *)
val spec_of_string : string -> spec

(** Canonical rendering; [spec_of_string (spec_to_string s)] is [s]. *)
val spec_to_string : spec -> string

(** A fault controller: one plan, one seed, one replayable trace. *)
type t

(** @raise Invalid_argument if the spec is malformed (probability outside
    [0,1], [delay_blocks < 1], bad crash window). *)
val create : seed:string -> spec -> t

val spec : t -> spec

(** [attach t net] installs the mempool fault pipeline, the partition /
    crash / byzantine-fork schedules on [net]'s block clock, and — when the
    plan has a [byzmine] clause — the reordering/censoring miner adversary. *)
val attach : t -> Zebra_chain.Network.t -> unit

(** [set_eclipsed t ~victim ~sender_hex] tells the controller which
    concrete sender address realises eclipse victim index [victim] (the
    scenario driver knows the wallets; the plan only has indices). *)
val set_eclipsed : t -> victim:int -> sender_hex:string -> unit

(** Remove the hooks installed by {!attach}. *)
val detach : Zebra_chain.Network.t -> unit

(** [attach_store t store] installs the chunk loss/corruption decider. *)
val attach_store : t -> Zebra_store.Store.t -> unit

val detach_store : Zebra_store.Store.t -> unit

(** [finish t net] heals any still-open partition (running the fork
    choice) and restarts any replica still down, so end-of-run invariants
    can assert full agreement.
    @raise Zebra_chain.Network.Consensus_failure if a re-sync diverges. *)
val finish : t -> Zebra_chain.Network.t -> unit

(** Every fault injected so far, oldest first — one line per event
    ([h=12 mempool.drop tx=1a2b3c4d], [h=9 node.crash node=2 until=12],
    [op=3 store.lose obj=99aabbcc], ...).  Identical across replays of the
    same [(seed, plan, workload)]. *)
val trace : t -> string list

(**/**)

(** Exposed for the property tests: the raw per-site uniform draw. *)
val unit_float : t -> site:int32 -> a:int -> b:int -> float
