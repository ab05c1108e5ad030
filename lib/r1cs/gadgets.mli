(** Gadget library: reusable circuit fragments over {!Cs}.

    Every gadget simultaneously (i) emits constraints and (ii) computes the
    witness values of the wires it allocates from the values already on the
    board, so one synthesis function serves setup, proving and testing.

    Expressions ({!expr}) are linear combinations; building them costs no
    constraints — only multiplications do. *)

type expr = Cs.lc

(** {1 Expression building} *)

val v : Cs.var -> expr

(** Constant expression. *)
val c : Fp.t -> expr

val ci : int -> expr
val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val scale : Fp.t -> expr -> expr
val eval : Cs.t -> expr -> Fp.t

(** [simplify e] merges duplicate-variable terms, in order of first
    occurrence, and drops zero coefficients.  Expression building is pure
    list concatenation, so iterated linear mixing (e.g. Poseidon's MDS
    layers) must canonicalise between rounds or term counts grow
    exponentially. *)
val simplify : expr -> expr

(** [as_const cs e] is [Some (eval cs e)] when every term of [e] rides on
    the constant-1 wire — i.e. the expression is a circuit constant — and
    [None] otherwise.  Hash gadgets use it to fold constant prefixes
    (length absorption, fixed IVs) to native computation, emitting zero
    constraints for them, and {!exp} takes a cheaper selector for a
    constant base. *)
val as_const : Cs.t -> expr -> Fp.t option

(** {1 Core gadgets} *)

(** [mul cs a b] allocates and returns the product wire. *)
val mul : Cs.t -> ?label:string -> expr -> expr -> Cs.var

(** [square cs a]. *)
val square : Cs.t -> expr -> Cs.var

(** [inverse cs a] allocates [a^-1] and enforces [a * inv = 1] (so it also
    proves [a <> 0]). The witness for a zero input is 0, which makes the
    constraint unsatisfiable rather than the synthesis raise. *)
val inverse : Cs.t -> expr -> Cs.var

(** [enforce_eq cs a b] adds [a = b] (one constraint). *)
val enforce_eq : Cs.t -> ?label:string -> expr -> expr -> unit

(** [alloc_bit cs b] allocates a wire constrained to {0,1}.  The wire is
    labelled with the ["bit"] prefix (optionally extended by [?label]),
    which declares the booleanity contract that [Zebra_lint]'s ZL030 rule
    audits — keep the prefix if you label boolean wires by hand. *)
val alloc_bit : Cs.t -> ?label:string -> bool -> Cs.var

(** [is_zero cs a] is a bit wire: 1 iff [a = 0] (2 constraints). *)
val is_zero : Cs.t -> expr -> Cs.var

(** [eq cs a b] is a bit wire: 1 iff [a = b]. *)
val eq : Cs.t -> expr -> expr -> Cs.var

(** [select cs ~cond a b] is [cond ? a : b] (1 wire + 1 constraint).
    [cond] must be a boolean-valued {e expression} — a bit wire [v b], or
    a boolean combination such as the output of {!less_than}; passing an
    unconstrained expression is unsound (the prover could pick any mix of
    [a] and [b]). *)
val select : Cs.t -> cond:expr -> expr -> expr -> Cs.var

(** [bits_of_expr cs a n] decomposes [a] into [n] little-endian boolean
    wires and enforces the recomposition (completeness requires
    [a < 2^n]; soundness additionally requires [n] small enough that the
    recomposition cannot wrap, i.e. [n <= 253] for this field). *)
val bits_of_expr : Cs.t -> expr -> int -> Cs.var array

(** [pack_bits cs bits] is the linear expression [sum b_i 2^i]. *)
val pack_bits : Cs.var array -> expr

(** [less_than cs a b ~bits] is a boolean expression: 1 iff [a < b], for
    values already known to fit in [bits] bits ([bits <= 250]).  Costs the
    [bits + 1] booleanity constraints of the shifted-difference
    decomposition plus its recomposition — [bits + 2] total.  The result
    is the complement of an already-constrained bit wire, so no output
    wire is allocated (ZL020 rank analysis showed the former copy wire was
    always determined; it was stripped in the Poseidon migration). *)
val less_than : Cs.t -> expr -> expr -> bits:int -> expr

(** [exp cs ~base ~bits] computes [base ^ (sum bits_i 2^i)] by
    square-and-multiply, msb first.  [bits] must be boolean wires.
    3 constraints per bit. *)
val exp : Cs.t -> base:expr -> bits:Cs.var array -> Cs.var

(** {1 MiMC gadgets} — mirror {!Zebra_mimc.Mimc} exactly.

    These are the legacy arm of the hash-composition parameter (see
    [Zebra_hashcomp.Hash_composition]); new circuits default to the
    Poseidon gadgets in [Zebra_poseidon.Poseidon], which cost ~3x fewer
    constraints for the same statement. *)

(** [mimc_encrypt cs ~key x]: 4 constraints per round, 364 for the full
    91-round cipher.  Constant-folds to zero constraints when both [key]
    and [x] are circuit constants ({!as_const}). *)
val mimc_encrypt : Cs.t -> key:expr -> expr -> expr

(** [mimc_hash cs ms] = [Mimc.hash_list] over expressions: one compression
    per element plus one for the length absorption; the length compression
    folds to a constant (the IV and length are literals), so hashing [k]
    non-constant elements costs [364 * k] constraints. *)
val mimc_hash : Cs.t -> expr list -> expr

(** {1 Merkle gadget} *)

(** [merkle_root ~compress cs ~leaf ~path_bits ~siblings] recomputes a
    Merkle root from the leaf upward, hashing each level with the 2-to-1
    compression gadget [compress cs left right].  [path_bits.(i) = 1]
    means the current node is the right child at level [i].  Bits must be
    boolean wires.  Arrays must have equal length (the tree depth).  Per
    level: 1 select + one compression.  With MiMC ([mimc_hash] of the two
    children: two compressions, the length one folds) that is
    1 + 2*364 = 729 constraints, plus the path bit's booleanity —
    730/level, 11680 at depth 16; with
    [Zebra_poseidon.Poseidon.hash2_gadget] it is 245/level (3920 at depth
    16, a 2.98x reduction).  Circuits go through
    [Zebra_hashcomp.Hash_composition.merkle_root_gadget], which picks the
    compression from the composition.
    @raise Invalid_argument on a length mismatch. *)
val merkle_root :
  compress:(Cs.t -> expr -> expr -> expr) ->
  Cs.t ->
  leaf:expr ->
  path_bits:Cs.var array ->
  siblings:Cs.var array ->
  expr
