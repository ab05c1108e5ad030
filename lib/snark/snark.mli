(** A Pinocchio-style zk-SNARK over {!Zebra_r1cs.Cs} constraint systems.

    Pipeline: R1CS -> QAP (Lagrange interpolation over an FFT domain) ->
    constant-size proof of 8 field elements.  The prover evaluates the
    witness polynomials A, B, C at a secret point s fixed by the trusted
    setup, plus knowledge-shifted copies (alpha_A A, alpha_B B, alpha_C C),
    a linear-consistency term beta (A + B + C), and the quotient
    H = (A B - C) / Z at s.  The prover takes A, B and C from their values
    on the domain to their values on a coset, where Z is a nonzero
    constant (three fused transforms, {!Fft.coset_of_evals_vec}), and
    evaluates H at s in one pass against the proving key's coset Lagrange
    basis ({!Fft.coset_query}): six NTTs per proof, and no coefficient of
    H is ever formed.  Zero-knowledge comes from blinding each polynomial
    by a random multiple of the vanishing polynomial Z.

    {b Substitution note} (see DESIGN.md): the paper uses the pairing-based
    scheme of BCGTV13 via libsnark.  Without a pairing-friendly curve
    implementation available, the homomorphic hiding of the CRS is modelled
    rather than enforced: the proving key stores the QAP evaluations in the
    clear and the verification key keeps the setup secrets, making this a
    designated-verifier analogue.  Proof size, completeness, verifier cost
    (O(|public inputs|)) and rejection of bad witnesses are all real; only
    the computational hardness of extracting s from the proving key is
    assumed.  The {!simulate_rng} function demonstrates the zero-knowledge
    trapdoor property exactly as in the original scheme.

    {b Parallelism}: [setup_rng] and [prove_rng] fan their table constructions,
    inner products and FFT passes out over {!Zebra_parallel.Parallel}.
    Proofs are bit-identical at every [ZEBRA_DOMAINS] setting: all
    randomness is drawn on the calling domain before fan-out and chunk
    grids are pool-independent (DESIGN.md, "Multicore prover"). *)

(** Prover material: the QAP evaluated at the secret point, the
    constraint matrices, and the coset's Lagrange basis at the secret
    point for H — the shape of a pairing-based Lagrange-basis key, with
    field elements in the place of group elements (kept in the clear
    under the designated-verifier caveat above). *)
type proving_key

(** Verifier material; fixes the public-input count. *)
type verifying_key

(** The setup secrets, exposed deliberately for {!simulate_rng}. *)
type trapdoor

(** A constant-size proof: 8 field elements. *)
type proof

(** Everything one trusted setup produces. *)
type keypair = { pk : proving_key; vk : verifying_key; trapdoor : trapdoor }

(** Canary bytes of the boxed trapdoor secret [t_s] (minimal big-endian
    field encoding), for the ZL2xx secret-flow lint: {!vk_to_bytes} and
    every other persisted sink must never contain them.  No keypair
    encoding exists; the trapdoor lives only in process memory. *)
val trapdoor_canary : keypair -> bytes

(** [setup_rng ~rng cs] runs the trusted setup for the {e structure} of
    [cs] (witness values on the board are ignored).  The returned keys fix
    the number of public inputs of [cs].
    @raise Invalid_argument if [cs] is a witness board
    ({!Cs.create_witness}), which keeps no constraint to compile. *)
val setup_rng : rng:Zebra_rng.Source.t -> Cs.t -> keypair

(** [prove_rng ~rng pk cs] where [cs] is the same circuit synthesised
    with a full witness.  The proof attests that the public inputs of [cs]
    extend to a satisfying assignment.
    @raise Invalid_argument if the shape of [cs] does not match [pk].

    An unsatisfied board produces a proof that verification rejects (the
    behaviour a cheating prover would face). *)
val prove_rng : rng:Zebra_rng.Source.t -> proving_key -> Cs.t -> proof

(** [prove_synth_rng ~rng pk synth] runs [synth] on a fresh witness board
    ({!Cs.create_witness}) inside the [snark.synthesize] obs span, then
    proves it with {!prove_rng}.  The witness board carries the assignment
    a constraint board would, so the proof is byte-identical to
    [prove_rng ~rng pk cs] for a constraint board [cs] that [synth] ran on;
    synthesis just skips building the constraints the proving key already
    holds.  The protocol's provers ([Cpla.auth_rng],
    [Reward_circuit.prove], [Reputation.prove_link]) all go through it.
    @raise Invalid_argument as {!prove_rng}. *)
val prove_synth_rng :
  rng:Zebra_rng.Source.t -> proving_key -> (Cs.t -> unit) -> proof

(** [verify vk ~public_inputs proof]: O(|public_inputs|) field operations. *)
val verify : verifying_key -> public_inputs:Fp.t array -> proof -> bool

(** [simulate_rng ~rng trapdoor ~public_inputs] forges a verifying
    proof {e without any witness}, using the setup trapdoor — the standard
    zero-knowledge simulator, used by tests to establish that proofs leak
    nothing beyond validity. *)
val simulate_rng : rng:Zebra_rng.Source.t -> trapdoor -> public_inputs:Fp.t array -> proof

(** {1 Introspection & serialisation} *)

(** The public-input count the key was set up for. *)
val num_public_inputs : verifying_key -> int

(** The constraint count the key was set up for. *)
val num_constraints : proving_key -> int

(** Canonical encoding (8 field elements, 32 bytes each framed). *)
val proof_to_bytes : proof -> bytes

(** @raise Zebra_codec.Codec.Decode_error on malformed input. *)
val proof_of_bytes : bytes -> proof

(** Canonical encoding, what contracts embed ([auth_vk]/[reward_vk]). *)
val vk_to_bytes : verifying_key -> bytes

(** Inverse of {!vk_to_bytes}.
    @raise Zebra_codec.Codec.Decode_error on malformed input, including an
    input table that does not hold [num_public_inputs + 1] entries. *)
val vk_of_bytes : bytes -> verifying_key

(** [Bytes.length (proof_to_bytes p)] (Table I's proof column). *)
val proof_size_bytes : proof -> int

(** Field-wise equality of the 8 proof elements. *)
val equal_proof : proof -> proof -> bool

(** {1 Decoded-VK cache}

    Contracts hold verification keys as canonical bytes; decoding one costs
    a Montgomery conversion per field element — on the same order as a
    verification.  [vk_of_bytes_cached] memoises successful decodes in a
    bounded process-wide table keyed by the exact bytes, so hot paths
    ({!verify_vk_bytes}, auditing) decode each distinct key once. *)

(** Like {!vk_of_bytes} but memoised.  Raises exactly like {!vk_of_bytes}
    on malformed input (failures are never cached).  Hits and decodes are
    counted by the obs counters [snark.cache.vk.hits] and
    [snark.cache.vk.decodes]. *)
val vk_of_bytes_cached : bytes -> verifying_key

(** {!verify} under [vk_of_bytes_cached vk_bytes], [false] when the bytes
    do not decode: the one verifier on contract-held key bytes. *)
val verify_vk_bytes : vk_bytes:bytes -> public_inputs:Fp.t array -> proof -> bool

(** {1 Named keypair memo}

    A system needs one trusted setup per circuit shape: each task contract
    carries its reward circuit's verifying key (Algorithm 1), and tasks
    reuse a handful of (policy, n) shapes.  A [Keycache.t] memoises
    keypairs under a caller-chosen circuit id plus the setup seed, so a
    hit skips both circuit synthesis and setup.  It is every circuit's one
    set-up path.  One memo lives in each [Protocol.system]; it holds one
    keypair per distinct shape and is never evicted.

    Caching is invisible in every output byte: the setup draws all its
    randomness from the seed, so a hit returns exactly the keypair a fresh
    setup would have produced.  Hits and misses count into the
    [snark.cache.hits] / [snark.cache.misses] obs counters. *)
module Keycache : sig
  type t

  val create : unit -> t

  (** [setup_named c ~circuit_id ~seed synth] returns the memoised
      keypair for [(circuit_id, seed)], or runs [synth] on a fresh
      constraint board and memoises [setup_rng ~rng:(Source.of_seed seed)]
      of it ([synth] is only called on a miss).  The caller owns the
      [circuit_id] namespace: it must determine the circuit structure
      (e.g. ["reward/" ^ policy-digest ^ "/n=" ^ n]). *)
  val setup_named :
    t -> circuit_id:string -> seed:string -> (Cs.t -> unit) -> keypair
end
