(** Arbitrary-precision natural numbers.

    Numbers are stored little-endian in arrays of 31-bit limbs, which keeps
    every intermediate product of the schoolbook multiplication within
    OCaml's 63-bit native integers.  All values are canonical: no leading
    zero limbs, and zero is the empty limb array.

    This module is the arithmetic substrate for the RSA layer, the
    Montgomery engine in {!Modular} and the field [Zebra_field.Fp], and it
    holds the one modular {!inverse}; it has no dependencies. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)
val of_int : int -> t

(** [to_int_opt n] is [Some i] when [n] fits in a native [int]. *)
val to_int_opt : t -> int option

(** Big-endian byte-string conversions.  [to_bytes_be] produces the minimal
    representation (empty for zero) unless [len] pads with leading zeros;
    it raises [Invalid_argument] if the value does not fit in [len]. *)
val of_bytes_be : bytes -> t

val to_bytes_be : ?len:int -> t -> bytes

val of_hex : string -> t

val of_decimal_string : string -> t
val to_decimal_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_even : t -> bool

(** Number of significant bits; [num_bits zero = 0]. *)
val num_bits : t -> int

(** [testbit n i] is bit [i] (little-endian); false beyond [num_bits]. *)
val testbit : t -> int -> bool

val add : t -> t -> t

(** [sub a b] requires [a >= b].  @raise Invalid_argument otherwise. *)
val sub : t -> t -> t

(** Schoolbook multiplication. *)
val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)] by Knuth's Algorithm D.
    @raise Division_by_zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [divmod_small a d] for [0 < d < 2^31]. *)
val divmod_small : t -> int -> t * int

(** [rem_small a d] is [snd (divmod_small a d)] without building the
    quotient. *)
val rem_small : t -> int -> int

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val gcd : t -> t -> t

(** [inverse a m] is [a^-1 mod m] in [\[1, m)], by the signed extended
    Euclidean algorithm: the one modular inverse, for any modulus [m >= 2],
    odd or even (RSA keygen inverts modulo an even lambda, [Fp.inv] modulo
    the field prime).
    @raise Division_by_zero if [gcd a m <> 1] (so also when [a mod m = 0]).
    @raise Invalid_argument if [m < 2]. *)
val inverse : t -> t -> t

(** [pow b e] for native exponent [e >= 0] (no modulus; use sparingly). *)
val pow : t -> int -> t

val pp : Format.formatter -> t -> unit

(**/**)

(** Internal: raw limb access for the Montgomery engines, {!Modular} and
    [Zebra_field.Fp].  [limbs n] is a fresh copy. *)
val limbs : t -> int array

val of_limbs : int array -> t

val limb_bits : int
