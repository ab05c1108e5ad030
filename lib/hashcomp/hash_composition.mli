(** The hash-composition parameter of the deployed circuits.

    Every provable statement in ZebraLancer — CPLA's certificate Merkle
    path and tag equations, the RA tree, the reputation link circuit —
    hashes with one algebraic hash both natively and in-circuit, and the
    two sides must agree bit-for-bit.  This module names that choice and
    dispatches to the matching native function and R1CS gadget, so circuit
    synthesis takes the composition as an explicit parameter instead of
    hard-coding a hash module.

    {!Poseidon} is the default: a 2-to-1 compression costs 243 constraints
    against MiMC's 728, which is ~2.98x fewer constraints on the Merkle
    authentication path that dominates the CPLA circuit (3920 vs 11680 at
    depth 16 — see [BENCH_lint.json]).  {!Mimc} is kept as the ablation
    arm: every deployed circuit that hashes is registered, lint-gated and
    benchmarked under {e both} compositions (see [Zebralancer.Deployed]).
    A running [Protocol.system] always uses {!default}; the MiMC arm is
    reached through the [?composition] arguments of the setup functions.
    The keypair memo ([Zebra_snark.Snark.Keycache], used by e.g.
    [Zebra_anonauth.Cpla.setup_cached]) scopes circuit ids by the
    composition, so keypairs of one arm can never be served to the other.

    Registry and memo id convention: names of circuits that hash carry the
    composition as a [-poseidon] / [-mimc] suffix ({!to_string}), their
    memo ids as an [h=poseidon] / [h=mimc] segment. *)

type t = Poseidon | Mimc

(** The composition newly deployed circuits compile with: {!Poseidon}. *)
val default : t

(** Both arms, default first — what registries and CI gates iterate. *)
val all : t list

(** ["poseidon"] / ["mimc"] — the registry-name suffix. *)
val to_string : t -> string

(** {1 Native hashing} — dispatch to {!Zebra_poseidon.Poseidon} /
    {!Zebra_mimc.Mimc}. *)

val hash2 : t -> Fp.t -> Fp.t -> Fp.t

(** [hash_list c ms] — both arms absorb the list length first, so the two
    compositions are domain-separated the same way (but their outputs are
    of course unrelated: a tree built under one arm never verifies under
    the other). *)
val hash_list : t -> Fp.t list -> Fp.t

(** {1 Circuit gadgets} — mirror the native functions exactly;
    cross-checked by the qcheck property in [test_anonauth]. *)

(** [hash_gadget c cs ms] = {!hash_list} over expressions:
    [243 * k] constraints (Poseidon) or [364 * k] (MiMC) for [k]
    non-constant inputs. *)
val hash_gadget :
  t -> Zebra_r1cs.Cs.t -> Zebra_r1cs.Gadgets.expr list -> Zebra_r1cs.Gadgets.expr

(** [merkle_root_gadget c cs ~leaf ~path_bits ~siblings] —
    {!Zebra_r1cs.Gadgets.merkle_root} with the gadget twin of {!hash2}
    as its compression: one select plus one 2-to-1 compression per level,
    244/level (Poseidon) or 729/level (MiMC), plus the caller's path-bit
    booleanity.
    @raise Invalid_argument when the arrays' lengths differ. *)
val merkle_root_gadget :
  t ->
  Zebra_r1cs.Cs.t ->
  leaf:Zebra_r1cs.Gadgets.expr ->
  path_bits:Zebra_r1cs.Cs.var array ->
  siblings:Zebra_r1cs.Cs.var array ->
  Zebra_r1cs.Gadgets.expr
