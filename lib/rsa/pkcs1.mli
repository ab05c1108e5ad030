(** RSASSA-PKCS1-v1_5 signatures with SHA-256 (RFC 8017 section 8.2). *)

(** [sign priv msg] returns the signature, [key_bytes] long. *)
val sign : Rsa.private_key -> bytes -> bytes

(** [verify pub ~msg ~signature] — false on any malformed input (never
    raises).  Keys are checked before any arithmetic: false for a modulus
    under 62 bytes (too short for the SHA-256 encoding) or over 4096 bits,
    and for an exponent that is even, below 3 or at least 2^32. *)
val verify : Rsa.public_key -> msg:bytes -> signature:bytes -> bool
