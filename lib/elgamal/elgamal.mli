(** ElGamal encryption in the multiplicative group of the SNARK field.

    This is the task-encryption scheme whose decryption is proved inside
    the reward circuit: [epk = g^esk], [Enc(m) = (g^k, m * epk^k)], and the
    circuit statement "A_j = Dec(esk, C_j)" becomes the few hundred
    constraints [A_j * c1^esk = c2] with the bits of [esk] as witness
    (see DESIGN.md substitution 4; the paper used RSA-OAEP here, which no
    SNARK can decrypt in-circuit).

    Plaintexts are nonzero field elements; crowdsourcing answers are mapped
    through {!encode_answer}. *)

type secret_key

type public_key = Fp.t

type ciphertext = { c1 : Fp.t; c2 : Fp.t }

(** The fixed group generator (the field's multiplicative generator). *)
val g : Fp.t

(** Exponent bit-length used by keygen and the circuit (253: full-width
    exponents, strictly below the field's bit size so bit decompositions
    stay sound). *)
val exponent_bits : int

val generate : random_bytes:(int -> bytes) -> secret_key * public_key

(** [g^sk] (the circuit's [pair(esk, epk)] is [epk = public_key esk]). *)
val public_key : secret_key -> public_key

(** Little-endian bits of the secret exponent — the witness fed to the
    reward circuit. *)
val secret_bits : secret_key -> bool array

(** Canary bytes (minimal big-endian exponent) for the ZL2xx secret-flow
    lint: a decryption key must never reach a serialisation, store put,
    obs export or log sink, and the lint scans those sinks for exactly
    these bytes. *)
val secret_canary : secret_key -> bytes

(** [encrypt ~random_bytes epk m] for [m <> 0].
    @raise Invalid_argument on zero. *)
val encrypt : random_bytes:(int -> bytes) -> public_key -> Fp.t -> ciphertext

val decrypt : secret_key -> ciphertext -> Fp.t

(** Answers are small non-negative integers; [encode_answer a = a + 1]
    keeps plaintexts nonzero.  [decode_answer] inverts it, returning
    [None] for values outside [0, max]. *)
val encode_answer : int -> Fp.t

val decode_answer : max:int -> Fp.t -> int option

(** The sentinel ciphertext [(0, 0)] marks a missing answer slot (never a
    real ciphertext since [c1 = g^k <> 0]). *)
val missing : ciphertext

val is_missing : ciphertext -> bool

val ciphertext_to_bytes : ciphertext -> bytes
val ciphertext_of_bytes : bytes -> ciphertext
val equal_ciphertext : ciphertext -> ciphertext -> bool
