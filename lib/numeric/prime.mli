(** Probabilistic primality testing and prime generation.

    Randomness is supplied by the caller as a [random_bytes] function so this
    module stays independent of any particular RNG (tests use a seeded
    {!Zebra_rng.Chacha20} stream). *)

(** [is_prime ?rounds n] runs trial division by small primes followed by
    [rounds] (default 32) Miller–Rabin iterations with random bases. *)
val is_prime : ?rounds:int -> random_bytes:(int -> bytes) -> Nat.t -> bool

(** [random_below ~random_bytes bound] samples uniformly in [[0, bound)]
    by rejection. *)
val random_below : random_bytes:(int -> bytes) -> Nat.t -> Nat.t

(** [random_bits ~random_bytes k] samples uniformly in [[0, 2^k)]. *)
val random_bits : random_bytes:(int -> bytes) -> int -> Nat.t

(** [generate ~bits ~random_bytes] returns an odd prime of exactly [bits]
    bits with the top two bits set, so p >= 1.5 * 2^(bits-1) and the
    product of two [bits]-bit primes always has [2 * bits] bits. *)
val generate : bits:int -> random_bytes:(int -> bytes) -> Nat.t
