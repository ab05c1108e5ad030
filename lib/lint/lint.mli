(** Static analysis of R1CS constraint systems ({!Zebra_r1cs.Cs}).

    End-to-end prove/verify tests establish {e completeness} — the honest
    witness satisfies the circuit — but cannot distinguish "sound" from
    "accepts too much": an under-constrained wire silently widens the NP
    language the SNARK proves.  This module inspects a synthesised [Cs.t]
    {e before} setup and reports structural soundness smells, grouped into
    four rule families (DESIGN.md, "Circuit static analysis"):

    - {b ZL00x — unconstrained wires.}  ZL001: an auxiliary (witness) wire
      that appears in no constraint with a nonzero coefficient — the prover
      may set it to anything.  ZL002: a public input no constraint reads —
      the verifier checks a value the circuit ignores.
    - {b ZL01x — degenerate constraints.}  ZL010: identically-satisfied
      constraints (e.g. [0 * b = 0], constant identities) that add no
      binding power.  ZL011: structural duplicates (same [A*B=C] up to term
      order, coefficient merging and [A]/[B] commutation).  ZL012:
      constraints whose linearisation is a linear combination of earlier
      ones at the sampled assignment.  ZL013: constant constraints that can
      never hold — the circuit is unsatisfiable for {e every} witness.
    - {b ZL02x — rank check.}  The Jacobian of the constraint map is ranked
      over the auxiliary columns by sparse Gaussian elimination over
      {!Fp}; auxiliary wires outside the pivot set are not uniquely
      determined (to first order, at the board's assignment) by the public
      inputs (ZL021, plus the ZL020 summary).  Deliberately prover-chosen
      wires (e.g. [is_zero]'s inverse witness on a zero input) surface here
      too, so the family reports [Warn], not [Error].
    - {b ZL03x — gadget contracts.}  ZL030: a wire whose label carries the
      ["bit"] prefix (the {!Zebra_r1cs.Gadgets.alloc_bit} convention) with
      no booleanity constraint.  ZL031: a ["bit recomposition"] constraint
      whose bit coefficients are not the strict doubling chain
      [1, 2, 4, ...] or whose bit wires lack booleanity — the decomposition
      would not sum back to its input.  The chain is checked on the
      decomposition's {e own} bits — the trailing block of
      consecutively-allocated bit wires; boolean wires reaching the
      constraint through the recomposed expression (e.g. a
      {!Zebra_r1cs.Gadgets.less_than} complement summed into the input)
      are input-side terms, though their booleanity is still required.

    Analysis is read-only: it never mutates the system, its assignment, or
    subsequent prove/verify behaviour (property-tested in
    [test/test_lint.ml]).  When {!Zebra_obs.Obs} is enabled, each run
    records [lint.runs], per-severity and per-rule [lint.*] counters, and
    the [lint.analyze] span. *)

type severity = Error | Warn | Info

val severity_to_string : severity -> string

(** Stable machine-readable finding.  [wire]/[constraint_index] locate the
    subject when an R1CS rule is about a single wire or constraint; labels
    give the provenance recorded at allocation/enforcement time. *)
type finding = {
  rule : string;  (** stable id, e.g. ["ZL001"] *)
  rule_name : string;  (** e.g. ["unconstrained-wire"] *)
  severity : severity;
  wire : int option;
  wire_label : string option;
  constraint_index : int option;
  constraint_label : string option;
  message : string;
}

(** What a report analysed: a circuit ({!analyze}), a tx kind
    ({!Txlint.analyze}) or a secret-flow codec case ({!Seclint.analyze}). *)
type subject =
  | Circuit of {
      num_vars : int;
      num_inputs : int;
      num_constraints : int;
      jacobian_rank : int;  (** over auxiliary columns, at the board's assignment *)
      free_aux_wires : int;  (** aux wires outside the pivot set *)
    }
  | Tx_kind of {
      cases : int;
      accessed_shards : int list;  (** union over cases, ascending *)
      declared_shards : int list;  (** union of declared masks, ascending *)
    }
  | Codec of { secrets : int; outputs : int }

type report = {
  name : string;  (** circuit name, tx kind or codec case *)
  subject : subject;
  findings : finding list;  (** in rule-id order, stable within a rule *)
}

(** [(id, name, severity)] of every rule, in id order — the linter's public
    contract surface, used by docs and tests.  ZL0xx rules are the R1CS
    families below; ZL1xx (declared-footprint soundness/minimality) and
    ZL2xx (secret canary flow) are produced by the chain-layer passes
    {!Txlint} and {!Seclint}, which share this finding type, report and
    obs counters. *)
val rules : (string * string * severity) list

(** [make_finding id message] — a finding under a registered rule id (name
    and severity are looked up; raises [Invalid_argument] on an unknown
    id), with no wire or constraint locator.  Used by the chain-layer
    passes. *)
val make_finding : string -> string -> finding

(** [make_report ~name subject findings] sorts [findings] into rule-id
    order and bumps the per-severity and per-rule [lint.*] obs counters for
    each (no-ops unless {!Zebra_obs.Obs} is enabled).  Every pass builds
    its report through it. *)
val make_report : name:string -> subject -> finding list -> report

(** [analyze ?name cs] runs every rule.  Read-only; safe to call on a board
    that will subsequently be handed to [Snark.setup_rng]/[prove_rng]. *)
val analyze : ?name:string -> Zebra_r1cs.Cs.t -> report

val errors : report -> int
val warnings : report -> int
val infos : report -> int

(** Findings carrying the given rule id. *)
val by_rule : report -> string -> finding list

(** A shard set as reports print it, e.g. ["{3,12,17}"]. *)
val shard_set_to_string : int list -> string

(** JSON shape: the subject's fields, then
    [..,"counts":{"error":..,"warn":..,"info":..},"findings":[...]}]:
    - circuit: [{"circuit":..,"num_vars":..,"num_inputs":..,
      "num_constraints":..,"jacobian_rank":..,"free_aux_wires":..,..}];
    - tx kind: [{"kind":..,"cases":..,"accessed_shards":[..],
      "declared_shards":[..],..}];
    - codec: [{"codec":..,"secrets":..,"outputs":..,..}]. *)
val to_json : report -> Zebra_obs.Json.t

(** Human rendering: one header line, then one line per finding; [Warn]-
    and [Info]-level findings are grouped per rule and truncated to
    [max_per_rule] (default 5) with an elision count. *)
val render : ?max_per_rule:int -> report -> string

(** SARIF 2.1.0 export, so CI can annotate findings on PRs: one run, one
    [tool.driver] (["zebra-lint"]) carrying every rule of {!rules} with its
    default severity; each finding becomes a [result] anchored to a
    {e logical} location ([circuit:<name>], [tx:<kind>] or
    [codec:<case>]), since the subjects are synthesised artifacts, not
    files.  Severity maps [Error]→["error"], [Warn]→["warning"],
    [Info]→["note"]. *)
val to_sarif : report list -> Zebra_obs.Json.t
