(** Anonymous reputation — a concrete answer to the paper's first open
    question ("there are many incentive mechanisms using reputation
    systems, can we further extend our implementations to support those
    incentives?").

    The tension is the same one CPLA already resolves: reputation must
    accumulate on {e some} stable handle, yet handles must not link a
    worker across contexts.  We reuse the common-prefix trick at a coarser
    grain: a worker's reputation lives on an {b epoch pseudonym}
    [P_e = H(epoch, sk)] — the same tag construction as t1 with the epoch
    number as the prefix.  Within an epoch all of a worker's claims
    aggregate on one pseudonym; across epochs pseudonyms are unlinkable,
    exactly like task tags across tasks.

    To move credit earned in a task (attributed on-chain to the task tag
    [t1 = H(alpha_C, sk)]) onto the epoch pseudonym, the worker proves in
    zero knowledge that {e the same secret key underlies both tags}:

      L_rep = { (t_task, P_e, alpha_C, e) | exists sk :
                t_task = H(alpha_C, sk)  /\  P_e = H(e, sk) }

    The flow (see {!Reputation_contract} for the on-chain side):
    requester credits task tags after the Reward phase; the worker later
    claims the credit onto an epoch pseudonym with a link proof; anyone
    reads pseudonym scores and requesters may e.g. gate tasks on them.
    Set-up, size and key-bytes verification are {!Zebra_snark.Snark}'s;
    this module supplies the circuit. *)

(** SNARK parameters for the link statement (one-time setup, like PP).
    The hash [H] of both tag equations is the
    {!Zebra_hashcomp.Hash_composition} parameter (default Poseidon: the
    whole link circuit is 974 constraints against MiMC's 1 458; see
    [BENCH_lint.json]).  It {b must} match the composition of the CPLA
    parameters whose t1 the task tag is linked against — tags of different
    arms never collide. *)
type params

(** The link circuit's setup through a keypair memo
    ({!Zebra_snark.Snark.Keycache}; a fresh one for a one-off setup) under
    the id [reputation/link/h=<composition>] (one entry per arm);
    randomness derives from [seed] alone. *)
val setup_cached :
  ?composition:Zebra_hashcomp.Hash_composition.t ->
  Zebra_snark.Snark.Keycache.t ->
  seed:string ->
  params

(** [synthesize_dummy cs]: the link circuit synthesised at the dummy
    assignment, on a board the caller made (either kind, see
    {!Zebra_r1cs.Cs}); {!setup_cached} compiles it, the registry lints it. *)
val synthesize_dummy :
  ?composition:Zebra_hashcomp.Hash_composition.t -> Zebra_r1cs.Cs.t -> unit

(** The hash composition these parameters were set up with. *)
val composition : params -> Zebra_hashcomp.Hash_composition.t

val circuit_size : params -> int
val vk_bytes : params -> bytes

type claim_proof = Zebra_snark.Snark.proof

(** [task_tag key ~task_prefix] = [H(prefix, sk)] — equals the t1 of any
    attestation the worker made in that task {e under the same
    composition}. *)
val task_tag :
  ?composition:Zebra_hashcomp.Hash_composition.t ->
  Zebra_anonauth.Cpla.user_key ->
  task_prefix:Fp.t ->
  Fp.t

(** [epoch_pseudonym key ~epoch]. *)
val epoch_pseudonym :
  ?composition:Zebra_hashcomp.Hash_composition.t ->
  Zebra_anonauth.Cpla.user_key ->
  epoch:int ->
  Fp.t

(** [prove_link ~random_bytes params ~key ~task_prefix ~epoch] — the
    worker-side claim proof. *)
val prove_link :
  random_bytes:(int -> bytes) ->
  params ->
  key:Zebra_anonauth.Cpla.user_key ->
  task_prefix:Fp.t ->
  epoch:int ->
  claim_proof

(** [verify_link ~vk_bytes ~task_tag ~pseudonym ~task_prefix ~epoch proof]
    — stateless check (what the contract runs). *)
val verify_link :
  vk_bytes:bytes ->
  task_tag:Fp.t ->
  pseudonym:Fp.t ->
  task_prefix:Fp.t ->
  epoch:int ->
  claim_proof ->
  bool
