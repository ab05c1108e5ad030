(** An opaque box for secret-carrying values (SNARK trapdoors, ElGamal
    decryption keys, wallet signing keys, worker master identities).

    The box has no [Repr]/[Codec] instance and its printer redacts, so a
    secret can only leave the box through an explicit {!use} at the call
    site — making every read of a secret grep-able, and making "this value
    was serialised by accident" a type error rather than a code-review
    catch (the PR 5 trapdoor-persistence leak class).

    The static side of the guarantee is checked by [Zebra_lint]'s ZL2xx
    secret-flow rules: every holder of a ['a t] exposes a [*_canary]
    accessor (a deterministic byte projection of the boxed value) and the
    lint round-trips every registered codec, store put, obs export and log
    sink against those canary bytes — if the canary appears in any sink
    output, the secret escaped its box. *)

type 'a t

(** [make ~label v] boxes [v].  The label names the secret in lint
    findings and in the redacted printer (e.g. ["snark.trapdoor.t_s"]). *)
val make : label:string -> 'a -> 'a t

(** [use s f] applies [f] to the boxed value.  The only way out of the
    box; keep the scope of [f] minimal. *)
val use : 'a t -> ('a -> 'b) -> 'b

(** Prints [<secret:label>]; never the value. *)
val pp : Format.formatter -> 'a t -> unit

(** {2 Canary checking} — used by the ZL2xx lint pass. *)

(** Canaries shorter than this are too weak to scan for (false-negative
    risk): the lint reports ZL202. *)
val min_canary_len : int

(** [leaks ~needle haystack] — does the canary (or its byte-reversal,
    catching endianness-flipped encodings) occur in [haystack]?
    A needle shorter than 2 bytes never matches (all-zero canaries of
    placeholder secrets would otherwise hit constantly). *)
val leaks : needle:bytes -> bytes -> bool
