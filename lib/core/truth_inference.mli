(** Off-chain truth inference over batches of tasks.

    Section IV grounds the quality-aware incentive class in "either majority
    voting or estimation maximization iterations" [9-11].  Majority voting
    is what the reward circuit proves on-chain; this module supplies the EM
    side — the Dawid-Skene estimator — which a requester can run across a
    {e batch} of annotation tasks to grade answers better than per-task
    majority when worker reliability varies.

    Everything here is requester-side post-processing of decrypted answers;
    it changes no on-chain rule.  (Proving EM fixpoints in-circuit is open
    research — the same status the paper gives it.) *)

type data = {
  items : int;  (** number of questions (tasks in the batch) *)
  workers : int;
  choices : int;
  answers : int option array array;  (** [answers.(item).(worker)] *)
}

type estimate = {
  labels : int array;  (** MAP label per item *)
  class_priors : float array;
  confusion : float array array array;
      (** [confusion.(worker).(truth).(observed)] *)
  log_likelihood : float;
  iterations : int;
}

(** @raise Invalid_argument on inconsistent dimensions. *)
val validate : data -> unit

(** Per-item majority labels (ties to the smallest choice; items with no
    answers get 0) — the baseline the reward circuit enforces. *)
val majority : data -> int array

(** [dawid_skene data] runs EM initialised from majority voting, stopping
    once an iteration gains less than 1e-6 in log-likelihood, or after 100
    iterations. *)
val dawid_skene : data -> estimate

(** [accuracy ~truth labels] — fraction of items labelled correctly. *)
val accuracy : truth:int array -> int array -> float

(** Synthetic crowd generator for tests and examples: each worker answers
    correctly with her own reliability, else uniformly at random; a [None]
    with probability [missing_rate]. *)
val synthesize :
  random_bytes:(int -> bytes) ->
  items:int ->
  choices:int ->
  reliabilities:float array ->
  ?missing_rate:float ->
  unit ->
  data * int array
(** Returns the data and the hidden ground truth. *)
