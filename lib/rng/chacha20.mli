(** ChaCha20 (RFC 8439) used as a deterministic random byte stream.

    The whole reproduction is driven by seeded ChaCha20 streams so every
    test, example and benchmark is reproducible bit-for-bit. *)

type t

(** [create ~seed] builds a generator keyed by xor-folding the seed into
    an all-zero 32-byte key: seed byte [i] is XORed, together with
    [i land 0xff], into key byte [i mod 32], so a seed longer than 32
    bytes wraps around rather than being truncated.  The nonce is all
    zero and the block counter starts at 0.  The seed is a label, not
    secret material; distinct seeds give distinct streams. *)
val create : seed:string -> t

(** [bytes t n] returns the next [n] bytes of the keystream. *)
val bytes : t -> int -> bytes

(** Raw block function, exposed for tests against RFC 8439 vectors:
    [block ~key ~counter ~nonce] with 32-byte key and 12-byte nonce
    returns the 64-byte block. *)
val block : key:bytes -> counter:int32 -> nonce:bytes -> bytes
