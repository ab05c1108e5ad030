(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used for blockchain hashing (transactions, blocks, addresses) and
    mapping arbitrary byte strings into the SNARK field. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> unit
val update_string : ctx -> string -> unit

(** [finalize ctx] returns the 32-byte digest; [ctx] must not be reused. *)
val finalize : ctx -> bytes

(** One-shot helpers. *)

val digest : bytes -> bytes

val digest_string : string -> bytes

val to_hex : bytes -> string
val of_hex : string -> bytes
