(** RSA key generation and raw operations, on top of {!Zebra_numeric}.

    The paper instantiates its DApp-layer signature as an RSA signature;
    this library provides it ({!Pkcs1}), and RSA also signs every
    blockchain transaction.  The paper's DApp-layer RSA-OAEP-2048 answer
    encryption is replaced by ElGamal inside the reward circuit
    ([lib/elgamal], DESIGN.md substitution 4). *)

type public_key = { n : Nat.t; e : Nat.t }

type private_key = {
  pub : public_key;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t; (* d mod p-1 *)
  dq : Nat.t; (* d mod q-1 *)
  qinv : Nat.t; (* q^-1 mod p *)
}

(** [generate ~bits ~random_bytes] makes an RSA key with modulus of exactly
    [bits] bits and public exponent 65537.
    @raise Invalid_argument if [bits < 256]. *)
val generate : bits:int -> random_bytes:(int -> bytes) -> private_key

(** Modulus size in bytes (the [k] of PKCS#1). *)
val key_bytes : public_key -> int

(** [raw_public pub m]: [m^e mod n]; requires [m < n]. *)
val raw_public : public_key -> Nat.t -> Nat.t

(** [raw_private priv c]: [c^d mod n] via the CRT (about 4x faster than the
    direct exponentiation). *)
val raw_private : private_key -> Nat.t -> Nat.t

val public_key_to_bytes : public_key -> bytes
val public_key_of_bytes : bytes -> public_key

val equal_public_key : public_key -> public_key -> bool
