(** Common-prefix-linkable anonymous authentication — the paper's new
    cryptographic primitive (Section V-A).

    A user holding a certificate (RA tree membership, see {!Ra}) can
    authenticate a message [prefix || m] anonymously.  The attestation
    carries two tags

      t1 = H(prefix, sk)        t2 = H(prefix || m, sk)

    and a zk-SNARK proof of the paper's language L_T:

      CertVrfy(cert, pk, mpk) = 1  /\  pair(pk, sk) = 1  /\
      t1 = H(prefix, sk)  /\  t2 = H(prefix || m, sk)

    (instantiated as: [pk = H(sk)], [pk] is a leaf under the root [mpk],
    and the two tag equations — all with the same algebraic hash inside
    the circuit).

    [H] is the {!Zebra_hashcomp.Hash_composition} parameter, fixed at
    setup and recorded in {!params}: {b Poseidon} by default — the Auth
    circuit is dominated by the Merkle authentication path, and Poseidon's
    245 constraints/level against MiMC's 730 cut the path ~3x and the
    whole circuit ~2.6x (5 381 vs 13 867 constraints at depth 16; see
    [BENCH_lint.json]) — with MiMC selectable as the
    ablation arm.  Keys, tags, RA tree and proofs of the two arms are
    mutually incompatible by construction; {!keygen_rng} and {!Ra.create}
    must be given the same composition as the params.

    Two valid attestations {!link} iff their [t1] tags are equal, i.e. iff
    the same key authenticated two messages with the same prefix.  In
    ZebraLancer the prefix is the task contract address, which is exactly
    what stops double submission without harming cross-task anonymity.
    Set-up, size and key-bytes verification are {!Zebra_snark.Snark}'s;
    this module supplies the circuit. *)

(** Public parameters PP: the circuit shape and SNARK keys for one
    (hash composition, RA tree depth) pair.  Generated once at system
    launch. *)
type params

type user_key = { sk : Fp.t; pk : Fp.t }

(** Canary bytes of the master identity secret [sk] (canonical big-endian
    field encoding) for the ZL2xx secret-flow lint: the master secret must
    never appear in any on-chain payload, store entry, obs export or log
    line — only tags and proofs derived from it may. *)
val key_canary : user_key -> bytes

type attestation = { t1 : Fp.t; t2 : Fp.t; proof : Zebra_snark.Snark.proof }

(** [setup_cached cache ~seed ~depth] runs the zk-SNARK trusted setup
    for the authentication circuit over an RA tree of the given depth,
    under the given hash composition (default Poseidon), through a
    keypair memo ({!Zebra_snark.Snark.Keycache}; a fresh one for a
    one-off setup), id [cpla/depth=<depth>/h=<composition>] (the
    composition is in the id, so the two arms' keypairs can never be
    served for each other).  Setup randomness comes from [seed] alone, so
    hit and miss produce byte-identical keys.
    @raise Invalid_argument when [depth < 1]. *)
val setup_cached :
  ?composition:Zebra_hashcomp.Hash_composition.t ->
  Zebra_snark.Snark.Keycache.t ->
  seed:string ->
  depth:int ->
  params

(** [synthesize_dummy ~depth cs]: the Auth circuit at the setup's dummy
    assignment, on a board the caller made (either kind, see
    {!Zebra_r1cs.Cs}) — what {!setup_cached} compiles and lint inspects.
    Constraint budget by composition: the three tag/pk hashes plus
    [depth] Merkle levels — roughly [245*depth + 6*243] for Poseidon
    (5 381 measured at depth 16) vs [730*depth + 6*364] for MiMC
    (13 867). *)
val synthesize_dummy :
  ?composition:Zebra_hashcomp.Hash_composition.t -> depth:int -> Zebra_r1cs.Cs.t -> unit

(** [synthesize cs ~composition ~depth ~prefix ~message ~root ~t1 ~t2 ~sk
    ~index ~path] synthesises the Auth statement onto [cs]: public inputs
    [prefix], [message], [root], [t1], [t2] in that order, then the
    witness [sk] and the certificate path.  {!auth_rng} runs it on a
    witness board; on a constraint board it gives the same assignment and
    a board that {!Zebra_r1cs.Cs.is_satisfied} checks. *)
val synthesize :
  Zebra_r1cs.Cs.t ->
  composition:Zebra_hashcomp.Hash_composition.t ->
  depth:int ->
  prefix:Fp.t ->
  message:Fp.t ->
  root:Fp.t ->
  t1:Fp.t ->
  t2:Fp.t ->
  sk:Fp.t ->
  index:int ->
  path:Fp.t array ->
  unit

val depth : params -> int

(** The hash composition these parameters were set up with. *)
val composition : params -> Zebra_hashcomp.Hash_composition.t

(** Number of R1CS constraints of the Auth circuit (reporting). *)
val circuit_size : params -> int

(** [keygen_rng ~rng ()]: [pk = H(sk)] under [?composition] — must
    match the {!params} the key will authenticate under. *)
val keygen_rng :
  ?composition:Zebra_hashcomp.Hash_composition.t ->
  rng:Zebra_rng.Source.t ->
  unit ->
  user_key

(** [auth_rng ~rng params ~prefix ~message ~key ~index ~path ~root] produces an
    attestation (tags and proof under the params' composition).
    [index]/[path] are the user's certificate under [root] (refresh with
    {!Ra.path}; the tree's {!Ra.hash_composition} must match).  Soundness
    of the whole scheme relies on the path actually matching [root]; an
    inconsistent witness yields an attestation that {!verify} rejects. *)
val auth_rng :
  rng:Zebra_rng.Source.t ->
  params ->
  prefix:Fp.t ->
  message:Fp.t ->
  key:user_key ->
  index:int ->
  path:Fp.t array ->
  root:Fp.t ->
  attestation

(** [verify params ~prefix ~message ~root att]. *)
val verify : params -> prefix:Fp.t -> message:Fp.t -> root:Fp.t -> attestation -> bool

(** [link a b]: same authenticator, same prefix (t1 equality).  Constant
    time — the contract runs it O(n) per submission for "nearly nothing"
    (paper Section V-B). *)
val link : attestation -> attestation -> bool

val attestation_to_bytes : attestation -> bytes

(** @raise Zebra_codec.Codec.Decode_error on malformed input. *)
val attestation_of_bytes : bytes -> attestation

val attestation_size_bytes : attestation -> int

(** Serialised verification material for embedding in contracts. *)
val vk_to_bytes : params -> bytes

(** [verify_with_vk ~vk_bytes ...] — verification from the serialised key
    only (what the task contract runs on-chain), through
    {!Zebra_snark.Snark.verify_vk_bytes}. *)
val verify_with_vk :
  vk_bytes:bytes -> prefix:Fp.t -> message:Fp.t -> root:Fp.t -> attestation -> bool
