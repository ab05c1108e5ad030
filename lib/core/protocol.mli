(** End-to-end protocol orchestration over the simulated network.

    This module wires the pieces into the four phases of Section V-B —
    Register, TaskPublish, AnswerCollection, Reward — plus the timeout
    fallback, and is what the examples, integration tests and benchmarks
    drive.  Lower-level steps are exposed so adversarial scenarios can
    deviate at any point.

    {b Error handling}: the [_r]-suffixed phase drivers, and the builders
    that read a task's storage ({!answers}, {!instruct}), return
    [('a, error) result]; a fault never raises.  Every rejection is
    [Rejected] naming the phase, the transaction and the reason, whether
    a receipt failed or a builder found its task contract missing.
    Callers that treat a rejection as fatal unwrap with {!get_ok}.

    {b One builder and one settle rule}: every on-chain step is a
    {!phase} — the transactions it broadcast plus the value it settles
    to — built only by {!funding}, {!publish}, {!answers} and
    {!instruct}, and by {!single} for the RA deployment, root post,
    Finalize and [Scenario]'s reputation-board transactions.  The phase
    drivers, [Chaos] and [Scenario] {!await} them one at a time; the
    pipelined [Load] scheduler keeps one phase per task in flight and
    {!poll}s each after every block.  Both confirm through the same
    {!poll}, so their bytes and their retries cannot drift apart.  A
    task's answers reach the chain only through {!answers}, each from an
    unfunded one-task wallet the caller hands out: the simulation
    charges no fees, so no worker and no Finalize caller is funded.
    [Load] passes its fee tiers and faucet nonces as [?fee] and
    [?nonce]; [Chaos] registers an eclipse victim's wallet with the fault
    controller as it hands it out, so a held answer is rebroadcast like
    any lost one.

    {b Fault tolerance}: phases ride out transient network faults (see
    [Zebra_faults]).  A phase settles once every receipt is in; a missing
    receipt is waited out for {!backoff_blocks} further blocks — the
    synchrony bound — then the stragglers are rebroadcast, up to
    {!max_attempts} broadcasts before [Timed_out].  Rebroadcasts are
    idempotent: a late-arriving delayed copy fails nonce replay and the
    first mined receipt is canonical.  A replica divergence the chain
    cannot mask surfaces as [Node_down].  On the fault-free happy path
    every phase settles in the block after its broadcast.

    {b Observability}: each phase runs under a [Zebra_obs] span
    ([protocol.register], [protocol.task_publish],
    [protocol.answer_collection], [protocol.reward], [protocol.finalize]) —
    inert until [Zebra_obs.Obs.set_enabled true]. *)

(** The retry bound of every {!phase}: up to [max_attempts] (3)
    broadcasts of a transaction, each followed by at most
    [backoff_blocks] (2) extra blocks of waiting for the receipt.  It
    rides out any delay fault with [delay_blocks <= 2] and any drop
    pattern that spares one of three broadcasts. *)
val max_attempts : int

val backoff_blocks : int

type system = {
  net : Zebra_chain.Network.t;
  cpla : Zebra_anonauth.Cpla.params;
  ra : Zebra_anonauth.Ra.t;
  ra_contract : Zebra_chain.Address.t;
  faucet : Zebra_chain.Wallet.t;
  ra_rsa : Zebra_rsa.Rsa.private_key;
      (** the RA's classical signing key for the non-anonymous mode *)
  rng : Zebra_rng.Source.t;
  setup_seed : string;
      (** the [~seed] passed to {!create_system} — trusted-setup randomness
          for cached circuits derives from it, never from [rng] *)
  keycache : Zebra_snark.Snark.Keycache.t;
      (** the system's keypair memo: one trusted setup per circuit shape,
          behind the CPLA setup and {!reward_circuit} *)
}

(** A registered participant: long-term CPLA identity plus certificate. *)
type identity = { key : Zebra_anonauth.Cpla.user_key; cert_index : int }

(** Why a phase did not settle. *)
type error =
  | Rejected of { phase : string; index : int; reason : string }
      (** the phase's [index]-th transaction (0-based, in broadcast order:
          the worker, for ["answer_collection"]) failed on-chain with
          [reason]; or the builder declined before broadcasting, with
          [index] 0 — a task that fails the workers' validation, or a task
          contract that is missing (its deployment requeued by a reorg or
          lost to a drop) *)
  | Timed_out of { phase : string; attempts : int }
      (** the phase's transaction was never mined despite [attempts]
          broadcasts — the fault plan exceeded the synchrony bound *)
  | Node_down of string
      (** a replica failure the chain could not mask (a crashed node whose
          re-sync diverged, or live replicas disagreeing) *)

val error_to_string : error -> string

(** [get_ok r] unwraps a phase result.
    @raise Failure ["Protocol: " ^ error_to_string e] on [Error e]. *)
val get_ok : ('a, error) result -> 'a

(** [create_system ~seed ()] boots a fresh chain (default 3 nodes), runs the
    CPLA trusted setup (default RA tree depth 6) through the system
    keypair memo, deploys the RA interface contract, and funds a faucet.
    Every circuit and the RA tree use
    {!Zebra_hashcomp.Hash_composition.default} (Poseidon).  [?rng]
    overrides the randomness source (default: a deterministic ChaCha20
    stream keyed by [seed]). *)
val create_system :
  ?num_nodes:int ->
  ?tree_depth:int ->
  ?rng:Zebra_rng.Source.t ->
  seed:string ->
  unit ->
  system

val random_bytes : system -> int -> bytes

(** Register phase, off-chain half: a fresh CPLA identity whose public key
    the RA appends to its tree.  The RA contract keeps the old root until
    {!post_root_r}, so a batch of registrations can share one root post. *)
val register : system -> identity

(** Register phase, on-chain half: the RA operator posts the tree's current
    root to the RA contract (one block on the happy path). *)
val post_root_r : system -> (unit, error) result

(** Register phase: {!register} then {!post_root_r}. *)
val enroll_r : system -> (identity, error) result

(** Register for the non-anonymous mode: an RSA keypair plus the RA's
    classical certificate over it. *)
val enroll_plain : system -> Zebra_rsa.Rsa.private_key * Plain_auth.cert

(** Serialised RA key to put in task params to enable plain submissions. *)
val ra_rsa_pub_bytes : system -> bytes

(** A new, unfunded one-task-only wallet drawn from the system stream. *)
val fresh_wallet : system -> Zebra_chain.Wallet.t

(** Read and decode a task contract's storage from the chain.  The phase
    builders read it as a result; this raising read serves callers that
    know the contract is deployed.
    @raise Failure when no contract lives at the address. *)
val task_storage : system -> Zebra_chain.Address.t -> Task_contract.storage

(** {2 Phases} *)

(** One on-chain step in flight: the transactions it broadcast and the
    ['a] it settles to once every receipt is Ok. *)
type 'a phase

(** [poll sys p] — run after each mined block — is [None] while [p] is
    pending and [Some result] once it settles, by one rule for every
    phase.  Every receipt Ok: [Ok value].  A failed receipt: [Error
    (Rejected {phase; index; reason})] for the first one, at once when
    every receipt is in, else after {!backoff_blocks} further blocks (the
    synchrony bound).  Receipts still missing after the bound are
    rebroadcast, up to {!max_attempts} broadcasts before [Error
    (Timed_out _)].

    Counters: [protocol.retry.resubmits] counts rebroadcast transactions;
    [protocol.retry.recovered] counts phases whose receipts all arrived,
    but not all in the first block after the first broadcast (a rebroadcast
    or a late receipt); [protocol.retry.timeouts] counts [Timed_out]s. *)
val poll : system -> 'a phase -> ('a, error) result option

(** [await sys p] mines blocks, {!poll}ing [p] after each, until it
    settles: one block on the happy path.  A replica failure while mining
    is [Error (Node_down _)]. *)
val await : system -> 'a phase -> ('a, error) result

(** [single sys ~name tx value] broadcasts [tx] as a phase of its own,
    labelled [name] in a [Rejected] or [Timed_out], settling to
    [value]. *)
val single : system -> name:string -> Zebra_chain.Tx.t -> 'a -> 'a phase

(** [funding sys wallet ~amount] broadcasts the faucet's transfer of
    [amount] to [wallet], at the faucet's on-chain nonce unless [?nonce]
    is given (a caller with several transfers pending counts nonces
    itself); [?fee] defaults to 0.  Settles to [wallet], labelled
    ["faucet_funding"]. *)
val funding :
  ?fee:int ->
  ?nonce:int ->
  system ->
  Zebra_chain.Wallet.t ->
  amount:int ->
  Zebra_chain.Wallet.t phase

(** [fresh_funded_wallet_r sys ~amount] — a {!fresh_wallet} with its
    awaited {!funding} (one block is mined on the happy path). *)
val fresh_funded_wallet_r : system -> amount:int -> (Zebra_chain.Wallet.t, error) result

(** The reward circuit for [(policy, n)] through the system keypair memo,
    with setup randomness derived from [setup_seed ^ "/reward-circuit"] —
    hit or miss, the same keys.  {!publish} proves under it. *)
val reward_circuit : system -> policy:Policy.t -> n:int -> Reward_circuit.t

(** [publish sys ~requester ~wallet ...] broadcasts the task deployment
    from the funded one-task [wallet] (nonce 0): a fresh task key, the
    requester's attestation under the RA's current root, an answer
    deadline [answer_window] (default 20) blocks after the current height
    and an instruct deadline [instruct_window] (default 40) blocks after
    that.  [?fee] defaults to 0.  The contract lands at the address
    [Requester.create_task] predicts, so the phase (["task_publish"])
    settles to the requester's task handle. *)
val publish :
  system ->
  requester:identity ->
  wallet:Zebra_chain.Wallet.t ->
  policy:Policy.t ->
  n:int ->
  budget:int ->
  ?answer_window:int ->
  ?instruct_window:int ->
  ?max_per_worker:int ->
  ?ra_rsa_pub:bytes ->
  ?data_digest:bytes ->
  ?fee:int ->
  unit ->
  Requester.task phase

(** [answer_tx sys ~storage ~task ~wallet worker ~answer] — [worker]'s
    encrypted, anonymously attested answer to the task contract [task]
    (whose decoded storage is [storage]), signed by the one-task [wallet]
    at nonce 0, at fee 0. *)
val answer_tx :
  system ->
  storage:Task_contract.storage ->
  task:Zebra_chain.Address.t ->
  wallet:Zebra_chain.Wallet.t ->
  identity ->
  answer:int ->
  Zebra_chain.Tx.t

(** [answers sys ~task ~wallet workers] checks the task once with
    [Worker.validate_task] against the chain's current state, then
    broadcasts each worker's {!answer_tx} in order, the [i]-th (0-based)
    from the unfunded one-task wallet [wallet i].  [wallet i] is called
    just before the [i]-th answer is proved, so wallet and proof draws
    interleave.  A missing task contract, or a task that fails
    validation, is [Error (Rejected { index = 0; _ })] before any wallet
    is drawn.  The phase is labelled ["answer_collection"] and settles to
    the wallets; a [Rejected]'s [index] names the worker. *)
val answers :
  system ->
  task:Zebra_chain.Address.t ->
  wallet:(int -> Zebra_chain.Wallet.t) ->
  (identity * int) list ->
  (Zebra_chain.Wallet.t list phase, error) result

(** [instruct sys task] broadcasts the requester's proved reward
    instruction over the task's current on-chain submissions.  [?fee]
    defaults to 0.  The phase (["reward"]) settles to the reward vector
    it pays; a missing task contract is [Error (Rejected _)] before
    anything is proved. *)
val instruct : ?fee:int -> system -> Requester.task -> (int array phase, error) result

(** {2 Phase drivers} *)

(** TaskPublish: awaits a fresh one-task wallet funded with [budget + 1],
    then the {!publish} phase, and returns the requester's task handle.
    Deadlines are windows in blocks from now. *)
val publish_task_r :
  system ->
  requester:identity ->
  policy:Policy.t ->
  n:int ->
  budget:int ->
  ?answer_window:int ->
  ?instruct_window:int ->
  ?max_per_worker:int ->
  ?ra_rsa_pub:bytes ->
  ?data_digest:bytes ->
  unit ->
  (Requester.task, error) result

(** AnswerCollection: awaits the {!answers} phase, each worker
    answering from a {!fresh_wallet} (one block on the happy path).
    Returns each worker's wallet, whose balance is then what the task
    pays it.  On [Error (Rejected { index; _ })] the index identifies the
    offending worker; earlier accepted submissions stay on-chain. *)
val submit_answers_r :
  system ->
  task:Zebra_chain.Address.t ->
  workers:(identity * int) list ->
  (Zebra_chain.Wallet.t list, error) result

(** Reward: awaits the {!instruct} phase (the requester decrypts,
    computes rewards, proves and instructs).  Returns the reward
    vector.  An instruction the contract rejects because a reorg re-mined
    the submissions after it was proved (a byzantine sibling, a partition
    heal) is proved again, up to {!max_attempts} proofs. *)
val reward_r : system -> Requester.task -> (int array, error) result

(** [mine_to_r sys ~height] mines (possibly empty) blocks up to [height].
    Unlike [Network.mine_until] it surfaces a replica failure tripped by
    the block clock (a scheduled crash whose re-sync diverges) as
    [Error (Node_down _)]. *)
val mine_to_r : system -> height:int -> (unit, error) result

(** Fallback: mine past the instruction deadline and have anyone call
    Finalize, here from an unfunded {!fresh_wallet} — refunds the
    untouched budget to the requester and pays the flat fallback to each
    submitted worker (the paper's timeout path when the requester never
    instructs).  A missing task contract is [Error (Rejected _)]. *)
val finalize_r : system -> Requester.task -> (unit, error) result

(** What an audit found.  [offenders] are indices into the chain-ordered
    submission list (the order {!audit_task_report} scanned the blocks in),
    sorted ascending. *)
type audit_report = { all_valid : bool; checked : int; offenders : int list }

(** Audit: re-verify every submission attestation mined for [task], the way
    an external verifier (or a full node replaying the chain) would — walks
    the blocks for Submit/Submit_plain transactions addressed to the task
    contract and checks each one on its own, with the verifier and inputs
    the contract admitted it with: [Cpla.verify_with_vk] under the task's
    [auth_vk] and [ra_root], or [Plain_auth.verify] under its [ra_rsa_pub],
    over the digest of the actual sender and ciphertext.  An attestation
    that does not decode is an offender.  The checks fan out over the pool,
    one verdict per slot, so the report does not depend on
    [ZEBRA_DOMAINS].  Runs under the [protocol.audit] span; bumps
    [protocol.audit.attestations]. *)
val audit_task_report : system -> task:Zebra_chain.Address.t -> audit_report

(** Batch driver for same-shape tasks: one requester, one worker pool, one
    reward-circuit setup shared across the whole batch (the amortisation a
    data-set-scale deployment needs).  Each inner list is one task's
    answers; all must have the same length. *)
val run_batch :
  system ->
  policy:Policy.t ->
  budget_per_task:int ->
  answer_sets:int list list ->
  int array list

(** One-call driver used by examples and benches: publish, collect the
    given answers, reward.  Returns the task, the worker wallets (in
    submission order) and the reward vector. *)
val run_task :
  system ->
  policy:Policy.t ->
  budget:int ->
  answers:int list ->
  Requester.task * Zebra_chain.Wallet.t list * int array
