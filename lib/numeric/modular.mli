(** Modular arithmetic over odd moduli, built on {!Nat}.

    A {!ctx} caches the Montgomery constants for one modulus so repeated
    multiplications and exponentiations avoid long division.  This engine
    backs the RSA layer and {!Prime}, and {!Zebra_field.Fp}'s [Nat]
    conversions, [pow] and [inv]; [Fp]'s arithmetic runs on kernels of
    its own fixed at the field's nine limbs, which compute the same limbs
    and are tested against these (DESIGN.md, "Field kernel discipline").

    Each Montgomery operation (CIOS multiply, add, subtract, negate and
    the final reduction by [m]) has one implementation here: a kernel
    over n-limb regions of flat arrays ({!add_off}, {!sub_off},
    {!neg_off}, {!mul_off}), for any limb count.  The pure operations
    ({!mont_add} ... {!mont_sqr}, {!to_mont}, {!of_mont}) are a fresh
    buffer plus that kernel, and {!mont_pow} calls the kernels on its
    own buffers. *)

type ctx

(** [create m] precomputes Montgomery constants for modulus [m].
    @raise Invalid_argument if [m] is even or [< 3]. *)
val create : Nat.t -> ctx

(** Number of limbs in the Montgomery representation. *)
val num_limbs : ctx -> int

(** Montgomery-form values: [ctx.n] little-endian 31-bit limbs, always
    fully reduced ([< m]), so structural equality is value equality.
    The representation is exposed read-only ([private]) so
    {!Zebra_field.Fp} can run its own kernels on its elements and build
    flat element vectors; treat values as immutable unless they are
    buffers you created yourself ({!mont_buffer}, {!mont_copy}). *)
type mont = private int array

val to_mont : ctx -> Nat.t -> mont
val of_mont : ctx -> mont -> Nat.t

val mont_zero : ctx -> mont
val mont_one : ctx -> mont

val mont_equal : mont -> mont -> bool

(** The pure operations: each returns a fresh value computed by the
    matching kernel below. *)

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

(** {1 Kernels}

    The one implementation of each operation, over n-limb little-endian
    regions of flat arrays ([region i] of a vector lives at offset
    [i * num_limbs ctx]); a whole [mont] is the region at offset [0] of
    its limbs.  [op ctx r ro a ao b bo] computes
    [r\[ro..\] <- a\[ao..\] op b\[bo..\]] and allocates nothing, so hot
    loops run without a heap allocation per field operation.

    Only ever write into buffers you own: a [mont] obtained from another
    module may be shared (e.g. {!Zebra_field.Fp.zero} is one global),
    and mutating it corrupts every holder.

    Aliasing rules: [add_off], [sub_off] and [neg_off] are elementwise
    (index [i] is read before it is written), so the destination region
    may {e coincide exactly} with either source region; partial overlap
    is invalid.  [mul_off] uses the destination as the CIOS accumulator,
    so it must be disjoint from both sources, and it raises
    [Invalid_argument] on a detected overlap; the two sources may
    coincide (squaring). *)

val add_off : ctx -> int array -> int -> int array -> int -> int array -> int -> unit
val sub_off : ctx -> int array -> int -> int array -> int -> int array -> int -> unit
val neg_off : ctx -> int array -> int -> int array -> int -> unit
val mul_off : ctx -> int array -> int -> int array -> int -> int array -> int -> unit
val is_zero_off : ctx -> int array -> int -> bool

(** A fresh caller-owned buffer, initialised to zero (a valid value). *)
val mont_buffer : ctx -> mont

val mont_copy : mont -> mont

(** [mont_set ~dst a] copies the value of [a] into [dst]. *)
val mont_set : dst:mont -> mont -> unit

val mont_set_zero : mont -> unit

(** [mont_of_region ctx a ao] copies the region at [ao] out into a
    fresh [mont] (the region must hold a reduced value, which every
    kernel above guarantees). *)
val mont_of_region : ctx -> int array -> int -> mont

(** Convenience wrappers on plain naturals (inputs reduced mod m first). *)

val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t
val pow : ctx -> Nat.t -> Nat.t -> Nat.t

(** [inverse a m] is [a^-1 mod m] in [\[1, m)], by the signed extended
    Euclidean algorithm: the one modular inverse, for any modulus [m >= 2],
    odd or even (RSA keygen inverts modulo an even lambda, [Fp.inv] modulo
    the field prime).
    @raise Division_by_zero if [gcd a m <> 1] (so also when [a mod m = 0]).
    @raise Invalid_argument if [m < 2]. *)
val inverse : Nat.t -> Nat.t -> Nat.t
