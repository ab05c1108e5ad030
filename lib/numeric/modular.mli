(** Modular arithmetic over odd moduli, built on {!Nat}.

    A {!ctx} caches the Montgomery constants for one modulus so repeated
    multiplications and exponentiations avoid long division.  This engine
    backs the RSA layer and {!Prime}, for any limb count.  The field
    {!Zebra_field.Fp} runs its own Montgomery implementation fixed at
    r's nine limbs; the operations here compute the same limbs on a
    context for r, so they are its test oracle and bench baseline
    (DESIGN.md, "Field kernel discipline").  The one modular inverse is
    {!Nat.inverse}.

    Each Montgomery operation (CIOS multiply, add, subtract, negate and
    the final reduction by the modulus) has one implementation, a
    private kernel over limb regions of flat arrays.  The operations
    below are a fresh value plus that kernel, and {!mont_pow} runs the
    multiply kernel on its own flat table and buffers. *)

type ctx

(** [create m] precomputes Montgomery constants for modulus [m].
    @raise Invalid_argument if [m] is even or [< 3]. *)
val create : Nat.t -> ctx

(** Montgomery-form values, always fully reduced (below the modulus), so
    {!mont_equal} is value equality.  Values are immutable. *)
type mont

val to_mont : ctx -> Nat.t -> mont
val of_mont : ctx -> mont -> Nat.t

val mont_one : ctx -> mont

val mont_equal : mont -> mont -> bool

(** The pure operations: each returns a fresh value. *)

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

(** Convenience wrappers on plain naturals (inputs reduced mod m first). *)

val sub : ctx -> Nat.t -> Nat.t -> Nat.t
val mul : ctx -> Nat.t -> Nat.t -> Nat.t
val pow : ctx -> Nat.t -> Nat.t -> Nat.t
