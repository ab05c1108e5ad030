(** HMAC-SHA256 (RFC 2104). *)

(** [hmac ~key msg] is the 32-byte HMAC-SHA256 tag. *)
val hmac : key:bytes -> bytes -> bytes
