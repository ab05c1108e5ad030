(** The non-anonymous authentication mode (paper Section VI, last
    paragraph): a participant who waives the anonymity privilege registers
    an RSA public key at the RA, receives a classical certificate (the
    RA's signature over the key), and authenticates by plain signing —
    "which essentially costs nearly nothing regarding the computational
    efficiency".

    Accountability is trivial here: the identity is public, so the task
    contract links two plain submissions by public-key equality.  A plain
    credential and an anonymous credential are distinct credentials; the
    RA's one-credential-per-identity rule is what prevents one person from
    holding both (as with any certification authority, this is an
    off-chain duty). *)

type cert = {
  worker_pk : Zebra_rsa.Rsa.public_key;
  ra_signature : bytes;
}

type attestation = {
  cert : cert;
  signature : bytes;  (** over prefix || message *)
}

(** [issue ~ra_priv pk] — CertGen for the plain mode. *)
val issue : ra_priv:Zebra_rsa.Rsa.private_key -> Zebra_rsa.Rsa.public_key -> cert

(** [auth ~priv ~cert ~prefix ~message] — Auth: sign the same
    (prefix, message) pair the anonymous mode authenticates. *)
val auth :
  priv:Zebra_rsa.Rsa.private_key -> cert:cert -> prefix:Fp.t -> message:Fp.t -> attestation

val verify : ra_pub:Zebra_rsa.Rsa.public_key -> prefix:Fp.t -> message:Fp.t -> attestation -> bool

(** Public linking handle: plain submissions by the same key share it.
    (A field element, so the task contract stores it in the same slot as
    the anonymous t1 tags; the two families cannot collide, as plain tags
    are hashes of public keys and t1 tags are hashes involving a secret.) *)
val tag : cert -> Fp.t

val attestation_to_bytes : attestation -> bytes

(** @raise Zebra_codec.Codec.Decode_error on malformed input. *)
val attestation_of_bytes : bytes -> attestation
