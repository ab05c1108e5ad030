(** A randomness source: the one-method interface ([bytes : int -> bytes])
    the whole stack draws from.

    [Source.t] names that contract so call sites pass one value
    ({!of_seed}, {!of_chacha}) instead of hand-building closures.  The
    SNARK and CPLA entry points ([Snark.setup_rng]/[prove_rng],
    [Cpla.keygen_rng]/[auth_rng], ...) take only a [Source.t]; a caller
    holding a bare [int -> bytes] closure (OS entropy, a test double, a
    client API that still threads [~random_bytes]) wraps it with
    {!of_fn}. *)

type t

(** [of_fn f] draws from the closure [f]; [fn (of_fn f)] is [f]. *)
val of_fn : (int -> bytes) -> t

(** A source drawing from a (stateful, shared) ChaCha20 stream. *)
val of_chacha : Chacha20.t -> t

(** [of_seed s] — a fresh deterministic ChaCha20 stream keyed by [s]. *)
val of_seed : string -> t

val bytes : t -> int -> bytes

(** [fn t] is [bytes t] partially applied — the bridge to the client APIs
    that take [~random_bytes] ([Wallet.generate], [Requester], [Worker]). *)
val fn : t -> int -> bytes
