(** The Poseidon permutation and 2-to-1 compression over {!Fp} — the
    {e default} in-circuit hash of the deployed circuits.

    The paper remarks that "a lot of dedicated optimizations of zk-SNARK
    exist which can directly benefit our protocol"; the single biggest one
    for its circuits is the in-circuit hash.  This module provides the
    modern choice — Poseidon with t = 3, x^5 S-box, 8 full and 57 partial
    rounds on the BN254 scalar field.  Since the Poseidon-first migration
    it is what CPLA attestation, RA certification and reputation-link
    circuits compile by default; {!Zebra_mimc.Mimc} remains selectable as
    the ablation arm via [Zebra_hashcomp.Hash_composition].

    Constraint budget (exact, enforced by tests): one permutation — and
    hence one {!hash2_gadget} call on non-constant inputs — costs
    [3*8 + 57 = 81] x^5 S-boxes at 3 constraints each, i.e. {b 243}
    constraints, versus MiMC's 728 for the same 2-to-1 compression
    (2 x 91 rounds x 4).  A depth-[d] Merkle path costs [245*d]
    (243 + 1 select + 1 path-bit booleanity per level): 1960 at depth 8,
    3920 at depth 16 — 2.98x below the MiMC arm's 11680.

    Security rationale for the parameters: width t = 3 gives rate 2 +
    capacity 1, i.e. 2-to-1 compression with ~127-bit collision resistance
    on the ~254-bit field; alpha = 5 is the smallest S-box exponent coprime
    to p - 1 for this field; R_F = 8 full rounds provide the statistical
    margin and R_P = 57 partial rounds the algebraic margin recommended by
    the Poseidon authors' rule for (t = 3, alpha = 5, 128-bit security),
    including their +25% safety factor on interpolation/Groebner attacks.

    Parameter generation note: round constants are derived from SHA-256 in
    counter mode and the MDS matrix is the Cauchy matrix over
    x = (0,1,2), y = (3,4,5) — deterministic and MDS, though not the
    Grain-LFSR constants of the reference implementation (we have no test
    vectors to match; cross-checking is against our own circuit gadget). *)

(** State width (rate 2 + capacity 1). *)
val width : int

val full_rounds : int
val partial_rounds : int

(** [permute state] — in-place Poseidon permutation; length must be
    {!width}.  @raise Invalid_argument otherwise. *)
val permute : Fp.t array -> unit

(** [hash2 a b] — 2-to-1 compression: permute [0; a; b], read lane 0. *)
val hash2 : Fp.t -> Fp.t -> Fp.t

(** [hash_list ms] — Merkle-Damgard over {!hash2} with the length absorbed
    first (mirrors {!Zebra_mimc.Mimc.hash_list}'s domain separation). *)
val hash_list : Fp.t list -> Fp.t

(** {1 Circuit gadgets} — mirror the native computation exactly.

    Wire discipline: gadgets take and return {!Zebra_r1cs.Gadgets.expr}
    linear combinations; only S-box multiplications allocate wires.  Both
    gadgets constant-fold — a call whose inputs are all circuit constants
    emits zero constraints (this is what makes the length-absorption step
    of {!hash_list_gadget} free).

    Every other permutation is emitted from one template, on either kind
    of board.  At module initialisation the symbolic permutation runs
    once on a constraint board over two placeholder input wires, and its
    243 constraints are kept with relative wire ids.  A call allocates
    the 243 S-box wires (x^2, x^4, x^5 per S-box, in {!permute}'s order)
    with values computed natively.  On a constraint board its
    constraints are the template's with each wire id shifted to the
    board's next free wire and the caller's input expressions spliced in
    where round 0's S-boxes read the placeholders, every term in the
    order the symbolic permutation would give it; a witness board only
    counts them.  The emitted lists share the template's coefficient
    values (see {!Zebra_r1cs.Cs.enforce}). *)

(** [hash2_gadget cs a b]: 243 constraints on non-constant inputs
    (81 S-boxes x 3); 0 when both inputs are constants. *)
val hash2_gadget :
  Zebra_r1cs.Cs.t -> Zebra_r1cs.Gadgets.expr -> Zebra_r1cs.Gadgets.expr -> Zebra_r1cs.Gadgets.expr

(** [hash_list_gadget cs ms] = {!hash_list} over expressions: the
    length-absorption step folds to a constant, then one {!hash2_gadget}
    per element — [243 * k] constraints for [k] non-constant inputs
    (cf. [364 * k] for {!Zebra_r1cs.Gadgets.mimc_hash}). *)
val hash_list_gadget :
  Zebra_r1cs.Cs.t -> Zebra_r1cs.Gadgets.expr list -> Zebra_r1cs.Gadgets.expr
