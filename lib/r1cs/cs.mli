(** Rank-1 constraint systems (R1CS) in the libsnark "protoboard" style.

    A system is a list of constraints [<A,w> * <B,w> = <C,w>] over a witness
    vector [w] whose index 0 is pinned to the constant 1, indices
    [1..num_inputs] are the public inputs, and the rest are auxiliary
    (private) wires.  Gadget code computes witness values while it emits
    constraints, so one synthesis function serves key generation (dummy
    inputs), proving (real inputs) and satisfaction checks.

    A board is made for one of two uses.  A {e constraint board}
    ({!create}) keeps every constraint with its labels: set-up, lint and
    satisfaction checks read it.  A {e witness board} ({!create_witness})
    keeps only the values and the three counts, which is all the prover
    reads: [enforce] just counts, labels are dropped, and the constraint
    readers raise.  The same synthesis gives both boards the same
    assignment and counts. *)

type var = private int

type t

(** Linear combination: sum of [coeff * var] terms. *)
type lc = (Fp.t * var) list

(** A constraint board: it keeps every constraint and wire label. *)
val create : unit -> t

(** A witness board: it keeps the assignment and counts constraints, but
    stores none, so {!wire_label}, {!constraints}, {!iter_constraints},
    {!is_satisfied} and {!find_unsatisfied} raise [Invalid_argument] on
    it (and so does [Snark.setup_rng], which reads the constraints). *)
val create_witness : unit -> t

(** [true] for a board made by {!create_witness}. *)
val is_witness : t -> bool

(** The constant-1 wire. *)
val one_var : var

(** [alloc_input cs v] allocates the next public-input wire with value [v].
    All public inputs must be allocated before any auxiliary wire (this
    convention is what lets the verifier reconstruct the input part).
    [?label] attaches a debug/provenance name visible to diagnostics and the
    static analyzer ({!wire_label}).
    @raise Invalid_argument if an auxiliary wire exists already. *)
val alloc_input : t -> ?label:string -> Fp.t -> var

(** [alloc cs v] allocates an auxiliary wire with value [v].  [?label] as in
    {!alloc_input}; labels with the ["bit"] prefix additionally declare a
    booleanity contract that [Zebra_lint] checks (see {!Gadgets.alloc_bit}). *)
val alloc : t -> ?label:string -> Fp.t -> var

(** The provenance label attached at allocation time, if any.
    @raise Invalid_argument on a witness board. *)
val wire_label : t -> var -> string option

(** [enforce cs ?label a b c] adds the constraint [a * b = c]; a witness
    board only counts it.  The board keeps the lists as given, so their
    coefficient values may be shared: the constraints
    [Poseidon.hash2_gadget] relocates share them with its permutation
    template, and [Snark]'s proving key keeps the same values in its CSR
    matrices.  Nothing may write a coefficient in place. *)
val enforce : t -> ?label:string -> lc -> lc -> lc -> unit

val value : t -> var -> Fp.t
val lc_value : t -> lc -> Fp.t

(** [set_value cs v x] overwrites a wire's witness value — used only by
    tests that deliberately corrupt a witness. *)
val set_value : t -> var -> Fp.t -> unit

val num_vars : t -> int

(** Number of public input wires (excluding the constant wire). *)
val num_inputs : t -> int

val num_constraints : t -> int

(** [constraints cs] in insertion order.
    @raise Invalid_argument on a witness board. *)
val constraints : t -> (lc * lc * lc) array

(** {1 Read-only traversal}

    [iter_constraints] visits every constraint in
    insertion order together with its index and optional label, without
    copying or exposing the internal representation — the traversal the
    static analyzer ([Zebra_lint]) and future tooling are built on.  The
    callback must not add constraints or allocate wires on [cs].
    @raise Invalid_argument on a witness board. *)

val iter_constraints :
  t -> (index:int -> label:string option -> lc -> lc -> lc -> unit) -> unit

(** Full assignment, indexed by wire; entry 0 is 1. *)
val assignment : t -> Fp.t array

(** Values of the public input wires [1..num_inputs]. *)
val public_inputs : t -> Fp.t array

(** @raise Invalid_argument on a witness board. *)
val is_satisfied : t -> bool

(** First violated constraint's label (or its index as a string).
    @raise Invalid_argument on a witness board. *)
val find_unsatisfied : t -> string option

(** [var_of_int i] — unsafe escape hatch for (de)serialisation in the SNARK
    layer. *)
val var_of_int : int -> var

val int_of_var : var -> int
