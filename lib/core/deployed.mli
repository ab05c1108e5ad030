(** The registry of circuits the protocol actually deploys, synthesised at
    the same dummy assignment the trusted setup uses.

    One list, consumed by the tools that must agree on what "deployed"
    means: the [zebra lint] CLI subcommand and the [bench lint]
    analyzer-cost benchmark, which fails on any [Error]-severity finding
    and pins every lint count (the [scripts/check.sh] gate runs it as
    [bench check lint]).  Synthesis is cheap — no SNARK setup
    runs — so the registry is rebuilt on demand. *)

(** [(name, synthesise)] pairs, in a stable order.  Every protocol circuit
    that hashes — the CPLA attestation circuit at the demo and deployment
    tree depths, and the reputation link circuit — is registered as {e two
    arms}, one per {!Zebra_hashcomp.Hash_composition}: [<base>-poseidon]
    (the deployed default) and [<base>-mimc] (the ablation arm).  The
    reward circuit hashes nothing, so each supported policy shape is listed
    once under its bare name ([reward-majority-n3], [reward-majority-n5],
    [reward-quota-n3], [reward-auction-n4]).  The two standalone
    hash-gadget Merkle shapes ([merkle-mimc-16], [merkle-poseidon-16])
    close the list. *)
val circuits : unit -> (string * (unit -> Zebra_r1cs.Cs.t)) list

(** [find name] — the synthesiser registered under [name]. *)
val find : string -> (unit -> Zebra_r1cs.Cs.t) option

val names : unit -> string list
