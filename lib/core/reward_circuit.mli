(** The reward-instruction circuit: the paper's NP language

    L = { (R, P) | exists esk :  A_j = Dec(esk, C_j)  for all j
                   /\  R_j = R(A_j; A_1..A_n, tau)
                   /\  pair(esk, epk) = 1 }

    proved by the requester after decrypting the submissions off-chain, and
    verified by the task contract on-chain — so the contract enforces the
    promised policy without ever seeing an answer.

    Public inputs (in order): [epk; rho; c1_1; c2_1; ...; c1_n; c2_n;
    R_1; ...; R_n] where [rho = tau / n] is the per-correct-answer reward
    (integer division done by the contract).  Witness: the bits of [esk]
    and the decrypted answers.

    Missing slots are the sentinel ciphertext (0,0); the circuit pins their
    plaintext to 0 (an invalid answer encoding), which can never match the
    majority, so their reward is forced to 0.

    Supported policies: {!Policy.Majority}, {!Policy.Majority_threshold}
    and {!Policy.Reverse_auction}.

    Hash-composition note: unlike CPLA and the reputation link circuit,
    the reward statement contains {e no} hashing — the policy tails are
    built from ElGamal decryption, equality, comparison and selection
    gadgets only — so it takes no hash composition: one circuit per
    (policy, n), one keycache id, and one [Deployed] registry entry under
    its bare name.  Set-up, size and key-bytes verification are
    {!Zebra_snark.Snark}'s; this module supplies the circuit. *)

type t

(** [setup_cached cache ~seed ~policy ~n] compiles the circuit for a task
    collecting [n] answers and runs the SNARK setup, off-line by the
    requester before publishing (paper Section VI, "establishments of
    zk-SNARKs"), through a keypair memo ({!Zebra_snark.Snark.Keycache};
    a fresh one for a one-off setup) keyed by [seed] and the id
    [reward/<policy-sha256>/n=<n>].  Setup randomness comes from [seed]
    alone, so hit and miss produce byte-identical keys.
    [Protocol.reward_circuit] calls it with the system's memo and seed.
    @raise Invalid_argument when [n <= 0]. *)
val setup_cached :
  Zebra_snark.Snark.Keycache.t ->
  seed:string ->
  policy:Policy.t ->
  n:int ->
  t

(** [synthesize_dummy ~policy ~n cs]: the circuit at the setup's dummy
    assignment, on a board the caller made (either kind, see
    {!Zebra_r1cs.Cs}) — what {!setup_cached} compiles and lint inspects.
    @raise Invalid_argument when [n <= 0]. *)
val synthesize_dummy : policy:Policy.t -> n:int -> Zebra_r1cs.Cs.t -> unit

val policy : t -> Policy.t
val n : t -> int

val num_constraints : t -> int
val vk_bytes : t -> bytes

(** Canary bytes of the setup trapdoor (see
    {!Zebra_snark.Snark.trapdoor_canary}) — the ZL2xx lint scans every
    persisted task artifact for them. *)
val trapdoor_canary : t -> bytes

(** The canonical public-input vector; the task contract recomputes this
    from its own storage, so a lying requester cannot substitute inputs. *)
val public_inputs :
  epk:Zebra_elgamal.Elgamal.public_key ->
  rho:int ->
  cts:Zebra_elgamal.Elgamal.ciphertext array ->
  rewards:int array ->
  Fp.t array

(** [prove ~random_bytes t ~esk ~rho ~cts ~rewards].  The prover decrypts
    [cts] itself (missing slots allowed); [rho] must equal the contract's
    [rho_of].  If [rewards] does not match the policy the resulting proof
    simply fails verification. *)
val prove :
  random_bytes:(int -> bytes) ->
  t ->
  esk:Zebra_elgamal.Elgamal.secret_key ->
  rho:int ->
  cts:Zebra_elgamal.Elgamal.ciphertext array ->
  rewards:int array ->
  Zebra_snark.Snark.proof

(** [rho_of ~policy ~budget ~n] — the public unit-reward input: [tau/n]
    for majority policies, [tau/winners] for auctions. *)
val rho_of : policy:Policy.t -> budget:int -> n:int -> int

(** Stateless verification from a serialised key — the contract's path.
    False on malformed [vk_bytes]. *)
val verify :
  vk_bytes:bytes ->
  epk:Zebra_elgamal.Elgamal.public_key ->
  rho:int ->
  cts:Zebra_elgamal.Elgamal.ciphertext array ->
  rewards:int array ->
  Zebra_snark.Snark.proof ->
  bool
