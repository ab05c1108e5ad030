(** A light client: headers only, plus Merkle inclusion checks.

    The paper's footnote 12 observes that requesters and workers "can even
    run on top of so-called light-weight nodes" — they need only the
    messages related to their own tasks.  This module is that node type:
    it follows the header chain (validating linkage) and verifies that a
    given transaction was included at a given height using the header's
    transaction root and a Merkle path obtained from any full node. *)

type t

(** A client that has accepted no header yet. *)
val create : unit -> t

(** Height of the last accepted header (0 before any). *)
val height : t -> int

(** [push_header t h] appends a header after validating the hash link and
    height.  Full nodes feed this from {!Block.t.header}. *)
val push_header : t -> Block.header -> (unit, string) result

(** [sync t blocks] pushes the headers of the given blocks in order,
    stopping at the first failure. *)
val sync : t -> Block.t list -> (unit, string) result

(** [verify_inclusion t ~height tx proof] — true iff the header at that
    height commits to [tx] via [proof] (from {!Block.tx_proof}). *)
val verify_inclusion : t -> height:int -> Tx.t -> (bytes * bool) list -> bool

(** State root claimed by the header at [height] ([None] if unknown). *)
val state_root : t -> height:int -> bytes option
