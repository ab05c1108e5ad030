(** The deployed secret-flow codec registry — {!Deployed}'s analogue for
    the chain layer, feeding the ZL2xx lint pass
    ({!Zebra_lint.Seclint}), the [zebra lint --tx] CLI mode,
    [bench lint] and the [scripts/check.sh] gate.

    Its chain is {!Scenario.build} at {!Scenario.default_seed}: one
    seeded end-to-end run that puts every transaction kind the protocol
    deploys on chain.  The registry is built once per process and
    memoised. *)

(** The ZL2xx codec registry: every secret the scenario holds (wallet
    signing keys, CPLA master identities, task decryption keys, SNARK
    trapdoors), scanned against every persisted output — transaction
    bytes, contract storages, receipt logs, obs export, verifying-key
    encodings and a {!Zebra_store.Store} round-trip (the PR 5
    trapdoor-leak regression lock).  Proving-key encodings are not
    registered sinks: the simulation models the real scheme's hiding
    commitments (a Lagrange-basis key [g^(L_j(s/g)/Z(g))] for the
    quotient and the wires' [g^(A_i(s))], [g^(B_i(s))]) as raw field
    elements, so pk bytes determine [s] by construction — a modelling
    artifact, not a leak. *)
val codecs : unit -> Zebra_lint.Seclint.codec_case list
