(** Incentive policies R(A_j; A_1..A_n, tau) (paper Section IV).

    A policy deterministically maps the multiset of collected answers and
    the budget to one reward per answer slot.  The requester commits to the
    policy in the task contract; the reward instruction she later sends is
    checked against it — either directly by re-evaluation (tests) or via
    the zk-SNARK of {!Reward_circuit} (the protocol path, which never
    reveals the answers). *)

type t =
  | Majority of { choices : int }
      (** The paper's image-annotation incentive [Shah-Zhou]: an answer in
          [0, choices) earning [tau/n] iff it equals the majority answer
          (ties break to the smallest choice). *)
  | Majority_threshold of { choices : int; quota : int }
      (** As [Majority], but nobody is rewarded unless the majority gathers
          at least [quota] votes (quality floor). *)
  | Reverse_auction of { winners : int; max_bid : int }
      (** Answers are bids in [0, max_bid]; the [winners] lowest bids win
          and are each paid the first losing bid ((k+1)-price, truthful),
          clamped to [tau/winners].  Ties break to earlier submissions. *)

(** An answer slot: [None] is the missing answer (the paper's bottom). *)
type answer = int option

(** Largest valid answer value + 1. *)
val answer_space : t -> int

val valid_answer : t -> int -> bool

(** [rewards policy ~budget ~n answers] — the canonical evaluation.
    [answers] must have length [n]; missing answers earn 0; the sum never
    exceeds [budget].
    @raise Invalid_argument on length mismatch. *)
val rewards : t -> budget:int -> n:int -> answer array -> int array

(** The even-split fallback of Algorithm 1 (line 18): [tau / ||W||] to each
    of the [submitted] workers. *)
val fallback_share : budget:int -> submitted:int -> int

val equal : t -> t -> bool
val to_bytes : t -> bytes
val of_bytes : bytes -> t
