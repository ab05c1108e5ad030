(** Content-addressed off-chain storage (an IPFS/Swarm stand-in).

    The paper notes (footnote 13, open question 2) that data-intensive
    tasks — image labelling, voice captioning — should keep the payload
    off-chain and anchor only a digest in the task contract.  This module
    provides the minimal substrate: an in-memory content-addressed store
    with chunking and Merkle-DAG manifests, so a task's [data_digest] is
    the root hash of its payload and any participant can fetch and verify
    the bytes against the on-chain anchor.

    Objects are immutable; every [get] re-verifies hashes, so a corrupted
    or substituted object is detected rather than returned. *)

type t

type hash = bytes (* 32-byte SHA-256 *)

(** [create ?chunk_size ()] — default chunks of 4 KiB. *)
val create : ?chunk_size:int -> unit -> t

(** [put t blob] stores the blob (chunked if necessary) and returns its
    root hash. Idempotent. *)
val put : t -> bytes -> hash

(** [get t h] reassembles and verifies the blob; [None] if any part is
    missing or fails verification. *)
val get : t -> hash -> bytes option

(** Number of stored objects (chunks + manifests). *)
val num_objects : t -> int

(** Failure injection for tests: flip one byte of the stored object with
    this hash.  @raise Not_found if absent. *)
val corrupt : t -> hash -> unit

(** {1 Fault injection}

    What a fault decision does to the object about to be fetched.  Because
    every [get] re-verifies content hashes, neither action can ever make
    [get] return wrong bytes — only [None]. *)
type fault_action =
  | Pass  (** healthy fetch *)
  | Lose  (** the object is deleted (chunk loss); a re-[put] of the same
              content heals it *)
  | Corrupt  (** one byte of the stored object flips; detected by the
                 integrity check, healed by re-[put] *)

(** [set_fault t f] installs (or, with [None], removes) a per-fetch fault
    decision, consulted once per object (manifest or chunk) that a [get]
    touches.  [Zebra_faults] supplies deterministic seed-keyed deciders. *)
val set_fault : t -> (hash -> fault_action) option -> unit
