(** The on-chain side of anonymous reputation (see {!Reputation}).

    A requester (or a consortium address) deploys one of these and, after
    each task's Reward phase, credits the {e task tags} of the workers she
    wants to commend — the tags are already public in her task contract's
    storage, so no identity is involved.  A worker then claims the credit
    onto his current epoch pseudonym with a zero-knowledge link proof;
    each credit is claimable once.  Scores per pseudonym are public, so
    any future task can gate on them without anyone learning who is
    behind a pseudonym, and next epoch the worker starts a fresh pseudonym
    that nobody can connect to the old one. *)

type storage = {
  owner : Zebra_chain.Address.t;
  link_vk : bytes;
  epoch : int;
  credits : (string * (int * Fp.t)) list;
      (** task-tag hex -> (score, task prefix); unclaimed *)
  scores : (string * int) list;  (** pseudonym hex -> accumulated score *)
}

type message =
  | Credit of { task_tag : Fp.t; task_prefix : Fp.t; score : int }  (** owner only *)
  | Claim of { task_tag : Fp.t; pseudonym : Fp.t; proof : bytes }
  | Advance_epoch  (** owner only *)

val behavior_name : string

val register : unit -> unit

val init_args : link_vk:bytes -> bytes
val message_to_bytes : message -> bytes

(** Inverse of {!message_to_bytes}.
    @raise Zebra_codec.Codec.Decode_error on malformed input. *)
val message_of_bytes : bytes -> message
val storage_of_bytes : bytes -> storage

(** Score of a pseudonym (0 if absent). *)
val score : storage -> Fp.t -> int
