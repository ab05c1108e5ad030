(** Blocks: a header committing to the previous block, the post-state root
    and the transaction Merkle root, plus the transaction list.

    Blocks can optionally carry a proof-of-work seal: [nonce] such that the
    header hash has [difficulty] leading zero bits.  The simulated network
    runs difficulty 0 by default (the paper's protocol only needs the
    ideal-ledger abstraction), but the machinery is real and tested, and
    light clients check the seal. *)

type header = {
  height : int;
  prev_hash : bytes;
  state_root : bytes;
  tx_root : bytes;
  nonce : int;  (** proof-of-work seal; 0 when difficulty is 0 *)
}

type t = { header : header; txs : Tx.t list }

val genesis_hash : bytes

(** [make ?difficulty ...] grinds a nonce satisfying the target (default
    difficulty 0: nonce stays 0). *)
val make :
  ?difficulty:int -> height:int -> prev_hash:bytes -> state_root:bytes -> Tx.t list -> t

(** Header hash. *)
val hash : t -> bytes

(** Hash from the header alone (light clients hold no bodies). *)
val hash_header : header -> bytes

(** [meets_difficulty h d]: the header hash has at least [d] leading zero
    bits. *)
val meets_difficulty : header -> int -> bool

(** Structural validity: tx root matches, transactions well signed, height
    and parent linkage against [prev], and the PoW seal when
    [difficulty > 0]. *)
val validate :
  ?difficulty:int -> prev_hash:bytes -> prev_height:int -> t -> (unit, string) result

(** Merkle inclusion proof for the [i]-th transaction (light-client path:
    {!Light_client.verify_inclusion} checks it against a synced header). *)
val tx_proof : t -> int -> (bytes * bool) list
