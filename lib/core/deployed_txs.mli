(** The deployed transaction-kind registry — {!Deployed}'s analogue for
    the chain layer, feeding the ZL103/ZL2xx lint passes
    ({!Zebra_lint.Txlint}, {!Zebra_lint.Seclint}), the [zebra lint --tx]
    CLI mode, [bench lint] and the [scripts/check.sh] gate.

    One seeded end-to-end scenario exercises every transaction kind the
    protocol deploys: faucet funding transfers, the RA contract deploy and
    its root updates (one per enrolment), two task publishes, anonymous
    submissions, a proof-carrying Instruct settlement (with a nonzero
    refund, so the refund branch is a covered path), a third-party
    Finalize after the instruction deadline, and the reputation board
    (deploy, credit, claim, epoch advance).  The mined chain is then
    replayed serially from genesis; each transaction is classified into
    its kind from the pre-state (behaviour name + decoded payload), and
    its case keeps the receipt of that replay's {!Zebra_chain.State.apply_tx}.

    Everything is derived from {!Scenario.default_seed}, so kinds and cases
    are deterministic; the scenario is built once per process and
    memoised. *)

(** All cases, in chain order.  Kind names are
    ["transfer"], ["deploy.<behavior>"], ["<behavior>.<message>"] — e.g.
    ["zebralancer-task.instruct"], ["zebralancer-reputation.claim"]. *)
val cases : unit -> Zebra_lint.Txlint.case list

(** The distinct kind names of {!cases}, sorted. *)
val kinds : unit -> string list

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
