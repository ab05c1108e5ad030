(** Blockchain addresses (pseudonyms).

    As in the paper's ideal-ledger model, an address is the hash of a public
    key: the low 20 bytes of SHA-256 over the serialised RSA key.  Contract
    addresses are derived from the creator address and its nonce
    (H(alpha_R || counter) exactly as the paper's footnote 10 prescribes),
    so a requester can predict her contract's address and authenticate it
    off-line before deployment. *)

type t

val of_public_key : Zebra_rsa.Rsa.public_key -> t

(** [of_creator addr nonce]: the address of the [nonce]-th contract created
    by [addr]. *)
val of_creator : t -> int -> t

val to_hex : t -> string

val equal : t -> t -> bool

(** Raw 20 bytes. *)
val to_bytes : t -> bytes

(** @raise Invalid_argument unless [b] is 20 bytes.  Wire decoders use
    {!read}. *)
val of_bytes : bytes -> t

(** [write w a] appends the raw 20 bytes as a length-prefixed string. *)
val write : Zebra_codec.Codec.writer -> t -> unit

(** [read r] is the one reader of an address off the wire: the inverse of
    {!write}.
    @raise Zebra_codec.Codec.Decode_error unless the string is 20 bytes. *)
val read : Zebra_codec.Codec.reader -> t

(** Field-element view, used as the authenticated message component
    (alpha_C, alpha_i) inside anonymous attestations. *)
val to_field : t -> Zebra_field.Fp.t
