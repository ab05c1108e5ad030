(** Modular arithmetic over odd moduli, built on {!Nat}.

    A {!ctx} caches the Montgomery constants for one modulus so repeated
    multiplications and exponentiations avoid long division.  This engine
    backs both the RSA layer and the SNARK prime field ({!Zebra_field.Fp}). *)

type ctx

(** [create m] precomputes Montgomery constants for modulus [m].
    @raise Invalid_argument if [m] is even or [< 3]. *)
val create : Nat.t -> ctx

val modulus : ctx -> Nat.t

(** Number of limbs in the Montgomery representation. *)
val num_limbs : ctx -> int

(** Montgomery-form values: [ctx.n] little-endian 31-bit limbs, always
    fully reduced ([< m]), so structural equality is value equality.
    The representation is exposed read-only ([private]) so
    {!Zebra_field.Fp} can build flat element vectors on top of the
    offset kernels below; treat values as immutable unless they are
    buffers you created yourself (see the [mont_*_into] family). *)
type mont = private int array

val to_mont : ctx -> Nat.t -> mont
val of_mont : ctx -> mont -> Nat.t

val mont_zero : ctx -> mont
val mont_one : ctx -> mont

val mont_equal : mont -> mont -> bool

val mont_add : ctx -> mont -> mont -> mont
val mont_sub : ctx -> mont -> mont -> mont
val mont_neg : ctx -> mont -> mont
val mont_mul : ctx -> mont -> mont -> mont
val mont_sqr : ctx -> mont -> mont

(** [mont_pow ctx b e] is [b^e] in Montgomery form ([e] a plain {!Nat.t}).
    Uses a 4-bit sliding window over an 8-entry odd-power table for
    exponents wider than 4 bits (~nb/5 multiplications instead of the
    binary method's ~nb/2); result limbs are identical to
    square-and-multiply because field arithmetic is exact.  A call
    allocates one flat table and two accumulator buffers, the same bytes
    for every exponent wider than 4 bits. *)
val mont_pow : ctx -> mont -> Nat.t -> mont

(** {1 In-place kernels}

    Destructive variants writing into caller-provided limb buffers, so
    hot loops run without a heap allocation per field operation.  Only
    ever mutate buffers you own: a [mont] obtained from another module
    may be shared (e.g. {!Zebra_field.Fp.zero} is one global), and
    mutating it corrupts every holder.

    Aliasing rules: [mont_add_into], [mont_sub_into] and
    [mont_neg_into] are elementwise (index [i] is read before it is
    written), so [dst] may be {e the same array} as either operand.
    [mont_mul_into] and [mont_sqr_into] use [dst] as the CIOS
    accumulator and raise [Invalid_argument] if it aliases a source
    (the two sources may coincide). *)

(** A fresh caller-owned buffer, initialised to zero (a valid value). *)
val mont_buffer : ctx -> mont

val mont_copy : mont -> mont

(** [mont_set ~dst a] copies the value of [a] into [dst]. *)
val mont_set : dst:mont -> mont -> unit

val mont_set_zero : mont -> unit
val mont_add_into : ctx -> dst:mont -> mont -> mont -> unit
val mont_sub_into : ctx -> dst:mont -> mont -> mont -> unit
val mont_neg_into : ctx -> dst:mont -> mont -> unit
val mont_mul_into : ctx -> dst:mont -> mont -> mont -> unit
val mont_sqr_into : ctx -> dst:mont -> mont -> unit

(** {1 Offset kernels}

    The same kernels over n-limb little-endian regions of flat arrays
    ([region i] of a vector lives at offset [i * num_limbs ctx]); these
    back {!Zebra_field.Fp.Vec}.  [r ro a ao b bo] computes
    [r\[ro..\] <- a\[ao..\] op b\[bo..\]].  Aliasing follows the rules
    above, region-wise: add/sub/neg destinations may {e coincide
    exactly} with a source region (partial overlap is invalid);
    [mul_off] requires a destination disjoint from both sources and
    raises [Invalid_argument] on a detected overlap. *)

val add_off : ctx -> int array -> int -> int array -> int -> int array -> int -> unit
val sub_off : ctx -> int array -> int -> int array -> int -> int array -> int -> unit
val neg_off : ctx -> int array -> int -> int array -> int -> unit
val mul_off : ctx -> int array -> int -> int array -> int -> int array -> int -> unit
val is_zero_off : ctx -> int array -> int -> bool
val cmp_off : int array -> int -> int array -> int -> int -> int

(** [mont_of_region ctx a ao] copies the region at [ao] out into a
    fresh [mont] (the region must hold a reduced value, which every
    kernel above guarantees). *)
val mont_of_region : ctx -> int array -> int -> mont

(** [mont_inv ctx a] for [a] invertible. @raise Division_by_zero otherwise. *)
val mont_inv : ctx -> mont -> mont

(** Convenience wrappers on plain naturals (inputs reduced mod m first). *)

val add : ctx -> Nat.t -> Nat.t -> Nat.t

val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t
val pow : ctx -> Nat.t -> Nat.t -> Nat.t

(** [inv ctx a]: modular inverse via extended binary GCD.
    @raise Division_by_zero if [gcd a m <> 1]. *)
val inv : ctx -> Nat.t -> Nat.t

(** [inverse a m] without a context (used by RSA keygen for even [m] too,
    as long as [a] is odd or [gcd a m = 1]). *)
val inverse : Nat.t -> Nat.t -> Nat.t
