(** Blocks: a header committing to the previous block, the post-state root
    and the transaction Merkle root, plus the transaction list.  There is
    no proof-of-work seal: the paper's protocol only needs the
    ideal-ledger abstraction. *)

type header = {
  height : int;
  prev_hash : bytes;
  state_root : bytes;
  tx_root : bytes;
}

(** Private, so that a block's [hash] always agrees with its header. *)
type t = private {
  header : header;
  txs : Tx.t list;
  hash : bytes;  (** {!hash_header} of [header], computed once by {!make} *)
}

val genesis_hash : bytes

val make : height:int -> prev_hash:bytes -> state_root:bytes -> Tx.t list -> t

(** Header hash, as computed by {!make}. *)
val hash : t -> bytes

(** Hash from the header alone (light clients hold no bodies). *)
val hash_header : header -> bytes

(** Merkle inclusion proof for the [i]-th transaction (light-client path:
    {!Light_client.verify_inclusion} checks it against a synced header). *)
val tx_proof : t -> int -> (bytes * bool) list
