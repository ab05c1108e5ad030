(** The crowdsourcing task contract — Algorithm 1 of the paper.

    Lifecycle (all timing in block units, the chain's discrete clock):

    - {b init} (TaskPublish): deployed by the requester's one-task-only
      address alpha_R with the budget attached.  The contract aborts unless
      the budget is deposited and the requester's anonymous attestation over
      [alpha_C || alpha_R] verifies (Algorithm 1 lines 3-4).
    - {b Submit} (AnswerCollection): a worker's one-task address alpha_i
      sends an encrypted answer C_i and an attestation over
      [alpha_C || alpha_i || C_i].  The contract verifies the attestation,
      recomputes the authenticated message from the {e actual} transaction
      sender (so a copied ciphertext re-sent from another address fails —
      the free-riding defence of footnote 9), and runs Link against every
      stored tag including the requester's (lines 7-9).  Collection closes
      at [n] answers or the answer deadline.
    - {b Instruct} (Reward): the requester sends the reward vector and a
      zk-SNARK proof; the contract rebuilds the public inputs from its own
      storage and verifies (lines 11-17).  A bad proof reverts — the
      instruction is dropped, the contract keeps waiting.
    - {b Finalize}: after the instruction deadline anyone may trigger the
      fallback: the budget is split evenly among submitters and the rest
      refunded (lines 18-21).

    Contract behaviour name: ["zebralancer-task"] (register once via
    {!register}). *)

type phase =
  | Collecting
  | Finished

type submission = {
  worker : Zebra_chain.Address.t;
  ciphertext : Zebra_elgamal.Elgamal.ciphertext;
  tag : Fp.t;  (** t1 of the worker's attestation, kept for Link *)
}

type params = {
  budget : int;
  n : int;  (** answers to collect *)
  answer_deadline : int;  (** absolute block height (the paper's T_A) *)
  instruct_deadline : int;  (** absolute block height (T_I) *)
  epk : Zebra_elgamal.Elgamal.public_key;
  ra_root : Fp.t;  (** RA tree root snapshot (part of mpk) *)
  auth_vk : bytes;  (** CPLA verification key (from PP) *)
  reward_vk : bytes;  (** reward-circuit verification key *)
  policy : Policy.t;
  requester_attestation : bytes;  (** pi_R over alpha_C || alpha_R *)
  max_per_worker : int;
      (** submissions allowed per identity (footnote 11's k; normally 1) *)
  ra_rsa_pub : bytes;
      (** RA key for the non-anonymous mode ({!Plain_auth}); empty
          disables plain submissions for this task *)
  data_digest : bytes;
      (** SHA-256 of the off-chain task payload (e.g. the image to
          annotate, held in a {!Zebra_store} CAS); empty if inline/none *)
}

type storage = {
  params : params;
  requester : Zebra_chain.Address.t;
  phase : phase;
  submissions : submission list;  (** oldest first *)
  requester_tag : Fp.t;
}

(** Payloads understood by [receive]. *)
type message =
  | Submit of { ciphertext : bytes; attestation : bytes }
      (** anonymous submission (CPLA attestation) *)
  | Submit_plain of { ciphertext : bytes; attestation : bytes }
      (** non-anonymous submission ({!Plain_auth} attestation) *)
  | Instruct of { rewards : int list; proof : bytes }
  | Finalize

val params_to_bytes : params -> bytes
val params_of_bytes : bytes -> params
val message_to_bytes : message -> bytes

(** Inverse of {!message_to_bytes} — used by off-chain auditors replaying
    mined submissions ({!Protocol.audit_task_report}).
    @raise Zebra_codec.Codec.Decode_error on malformed input. *)
val message_of_bytes : bytes -> message

val storage_of_bytes : bytes -> storage

(** The authenticated message component for a submission: the field image
    of SHA-256(alpha_i || C_i) — both clients and the contract compute it. *)
val submission_digest : Zebra_chain.Address.t -> bytes -> Fp.t

(** Registers the behaviour with {!Zebra_chain.Contract}; idempotent. *)
val register : unit -> unit

val behavior_name : string
