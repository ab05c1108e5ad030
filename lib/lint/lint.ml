module Cs = Zebra_r1cs.Cs
module Gadgets = Zebra_r1cs.Gadgets
module Obs = Zebra_obs.Obs
module Json = Zebra_obs.Json

type severity = Error | Warn | Info

let severity_to_string = function Error -> "error" | Warn -> "warn" | Info -> "info"

type finding = {
  rule : string;
  rule_name : string;
  severity : severity;
  wire : int option;
  wire_label : string option;
  constraint_index : int option;
  constraint_label : string option;
  message : string;
}

type subject =
  | Circuit of {
      num_vars : int;
      num_inputs : int;
      num_constraints : int;
      jacobian_rank : int;
      free_aux_wires : int;
    }
  | Tx_kind of { cases : int; accessed_shards : int list; declared_shards : int list }
  | Codec of { secrets : int; outputs : int }

type report = { name : string; subject : subject; findings : finding list }

let rules =
  [
    ("ZL001", "unconstrained-wire", Error);
    ("ZL002", "unused-public-input", Warn);
    ("ZL010", "trivial-constraint", Warn);
    ("ZL011", "duplicate-constraint", Warn);
    ("ZL012", "linearly-dependent-constraint", Info);
    ("ZL013", "unsatisfiable-constant-constraint", Error);
    ("ZL020", "rank-deficient-system", Warn);
    ("ZL021", "underdetermined-wire", Warn);
    ("ZL030", "missing-booleanity", Error);
    ("ZL031", "broken-bit-recomposition", Error);
    (* chain/protocol layer (Txlint): declared-footprint analysis *)
    ("ZL101", "under-declared-footprint", Error);
    ("ZL102", "over-declared-footprint", Error);
    ("ZL103", "vacuous-tx-case", Error);
    ("ZL110", "shard-conflict-signature", Info);
    (* secret-flow (Seclint): canary-byte taint checking *)
    ("ZL201", "secret-leaked-to-sink", Error);
    ("ZL202", "secret-canary-too-short", Warn);
  ]

let rule_name id =
  match List.find_opt (fun (i, _, _) -> i = id) rules with
  | Some (_, n, _) -> n
  | None -> invalid_arg ("Lint.rule_name: unknown rule " ^ id)

let rule_severity id =
  match List.find_opt (fun (i, _, _) -> i = id) rules with
  | Some (_, _, s) -> s
  | None -> invalid_arg ("Lint.rule_severity: unknown rule " ^ id)

(* --- observability --- *)

let runs_counter = Obs.Counter.make "lint.runs"
let circuits_counter = Obs.Counter.make "lint.circuits"

let severity_counter = function
  | Error -> Obs.Counter.make "lint.findings.error"
  | Warn -> Obs.Counter.make "lint.findings.warn"
  | Info -> Obs.Counter.make "lint.findings.info"

let rule_counters =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (id, _, _) ->
      Hashtbl.replace tbl id (Obs.Counter.make ("lint.rule." ^ String.lowercase_ascii id)))
    rules;
  tbl

(* Shared by [analyze] and the chain-layer passes (Txlint, Seclint). *)
let make_report ~name subject findings =
  let findings = List.stable_sort (fun f1 f2 -> compare f1.rule f2.rule) findings in
  List.iter
    (fun f ->
      Obs.Counter.incr (severity_counter f.severity);
      match Hashtbl.find_opt rule_counters f.rule with
      | Some c -> Obs.Counter.incr c
      | None -> ())
    findings;
  { name; subject; findings }

(* --- sparse linear algebra over Fp ---

   Rows are association lists (column, coefficient) sorted by DESCENDING
   column with no zero coefficients.  Pivoting on the largest column makes
   elimination near-linear on synthesised circuits: gadget code allocates
   an output wire per constraint, so most rows lead with a fresh column
   and install a pivot without any reduction work. *)

let row_scale k row = List.map (fun (c, x) -> (c, Fp.mul k x)) row

let row_sub a b =
  (* a - b, both sorted descending *)
  let rec go acc a b =
    match (a, b) with
    | [], [] -> List.rev acc
    | [], (c, k) :: tb -> go ((c, Fp.neg k) :: acc) [] tb
    | (c, k) :: ta, [] -> go ((c, k) :: acc) ta []
    | (ca, ka) :: ta, (cb, kb) :: tb ->
      if ca > cb then go ((ca, ka) :: acc) ta b
      else if cb > ca then go ((cb, Fp.neg kb) :: acc) a tb
      else
        let k = Fp.sub ka kb in
        if Fp.is_zero k then go acc ta tb else go ((ca, k) :: acc) ta tb
  in
  go [] a b

(* Gaussian elimination.  Returns the pivot table (leading column ->
   normalised row) and the indices of rows that reduced to zero (linearly
   dependent on earlier rows). *)
let eliminate rows =
  let pivots : (int, (int * Fp.t) list) Hashtbl.t = Hashtbl.create 97 in
  let dependent = ref [] in
  List.iter
    (fun (idx, row0) ->
      let row = ref row0 in
      let fixed = ref false in
      while not !fixed do
        match !row with
        | [] ->
          dependent := idx :: !dependent;
          fixed := true
        | (c0, k0) :: _ -> (
          match Hashtbl.find_opt pivots c0 with
          | Some prow -> row := row_sub !row (row_scale k0 prow)
          | None ->
            Hashtbl.replace pivots c0 (row_scale (Fp.inv k0) !row);
            fixed := true)
      done)
    rows;
  (pivots, List.rev !dependent)

(* --- constraint canonicalisation --- *)

type cview = {
  idx : int;
  clabel : string option;
  ca : (int * Fp.t) list; (* canonical: simplified, sorted ascending by wire *)
  cb : (int * Fp.t) list;
  cc : (int * Fp.t) list;
}

let canon lc =
  Gadgets.simplify lc
  |> List.map (fun (k, v) -> (Cs.int_of_var v, k))
  |> List.sort (fun (v1, _) (v2, _) -> compare v1 v2)

(* Some k when the lc only touches the constant wire (value k). *)
let const_of = function
  | [] -> Some Fp.zero
  | [ (0, k) ] -> Some k
  | _ -> None

let collect cs =
  let acc = ref [] in
  Cs.iter_constraints cs (fun ~index ~label a b c ->
      acc := { idx = index; clabel = label; ca = canon a; cb = canon b; cc = canon c } :: !acc);
  List.rev !acc

(* --- the analysis --- *)

let describe_wire cs w =
  match Cs.wire_label cs (Cs.var_of_int w) with
  | Some l -> Printf.sprintf "wire %d (%s)" w l
  | None -> Printf.sprintf "wire %d" w

let finding ?wire ?wire_label ?constraint_index ?constraint_label rule message =
  {
    rule;
    rule_name = rule_name rule;
    severity = rule_severity rule;
    wire;
    wire_label;
    constraint_index;
    constraint_label;
    message;
  }

let make_finding rule message = finding rule message

let wire_finding cs rule w message =
  finding rule message ~wire:w ?wire_label:(Cs.wire_label cs (Cs.var_of_int w))

let constr_finding rule (c : cview) message =
  finding rule message ~constraint_index:c.idx ?constraint_label:c.clabel

(* ZL001 / ZL002: structural occurrence (nonzero coefficient anywhere). *)
let unconstrained_wires cs views =
  let n = Cs.num_vars cs and inputs = Cs.num_inputs cs in
  let occurs = Array.make n false in
  let mark lc = List.iter (fun (v, _) -> if v > 0 && v < n then occurs.(v) <- true) lc in
  List.iter
    (fun c ->
      mark c.ca;
      mark c.cb;
      mark c.cc)
    views;
  let errs = ref [] and warns = ref [] in
  for w = n - 1 downto 1 do
    if not occurs.(w) then
      if w <= inputs then
        warns :=
          wire_finding cs "ZL002" w
            (Printf.sprintf "public input %s appears in no constraint: the verifier checks a \
                             value the circuit never reads"
               (describe_wire cs w))
          :: !warns
      else
        errs :=
          wire_finding cs "ZL001" w
            (Printf.sprintf "witness %s appears in no constraint (nonzero coefficient): the \
                             prover may assign it freely"
               (describe_wire cs w))
          :: !errs
  done;
  (!errs, !warns, occurs)

(* ZL010 / ZL013: constraints that bind nothing, or can never hold. *)
let degenerate_constraints views =
  List.filter_map
    (fun c ->
      match (const_of c.ca, const_of c.cb, const_of c.cc) with
      | Some a, Some b, Some cc ->
        if Fp.equal (Fp.mul a b) cc then
          Some
            (constr_finding "ZL010" c
               "constraint touches only the constant wire and is identically satisfied")
        else
          Some
            (constr_finding "ZL013" c
               "constant constraint can never be satisfied: the circuit rejects every witness")
      | a, b, Some cc when Fp.is_zero cc && (a = Some Fp.zero || b = Some Fp.zero) ->
        Some
          (constr_finding "ZL010" c
             "one product side is the constant 0 and the right-hand side is 0: satisfied by \
              every assignment")
      | _ -> None)
    views

(* ZL011: structural duplicates, up to term order, coefficient merging and
   commuting the product sides. *)
let duplicate_constraints views =
  let key_of_lc lc =
    let b = Buffer.create 64 in
    List.iter
      (fun (v, k) ->
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ':';
        Buffer.add_bytes b (Fp.to_bytes_be k);
        Buffer.add_char b ';')
      lc;
    Buffer.contents b
  in
  let seen = Hashtbl.create 97 in
  List.filter_map
    (fun c ->
      let ka = key_of_lc c.ca and kb = key_of_lc c.cb and kc = key_of_lc c.cc in
      let key = (if ka <= kb then ka ^ "*" ^ kb else kb ^ "*" ^ ka) ^ "=" ^ kc in
      match Hashtbl.find_opt seen key with
      | Some first ->
        Some
          (constr_finding "ZL011" c
             (Printf.sprintf "structurally identical to constraint #%d%s" first.idx
                (match first.clabel with Some l -> Printf.sprintf " (%s)" l | None -> "")))
      | None ->
        Hashtbl.replace seen key c;
        None)
    views

(* Booleanity pattern: (alpha x) * (beta x - beta) = 0 up to side swap.
   Returns the set of wires carrying such a constraint. *)
let booleanity_constrained views =
  let tbl = Hashtbl.create 97 in
  let single = function [ (v, k) ] when v > 0 -> Some (v, k) | _ -> None in
  let affine_pair = function
    | [ (0, k0); (v, k1) ] when v > 0 && Fp.equal k0 (Fp.neg k1) -> Some v
    | _ -> None
  in
  List.iter
    (fun c ->
      if c.cc = [] then
        let check l r =
          match (single l, affine_pair r) with
          | Some (x, _), Some x' when x = x' -> Hashtbl.replace tbl x ()
          | _ -> ()
        in
        check c.ca c.cb;
        check c.cb c.ca)
    views;
  tbl

let is_bit_label = function
  | Some l -> String.length l >= 3 && String.sub l 0 3 = "bit"
  | None -> false

(* ZL030: every wire whose label declares it boolean must carry a
   booleanity constraint. *)
let missing_booleanity cs views =
  let bool_ok = booleanity_constrained views in
  let n = Cs.num_vars cs in
  let out = ref [] in
  for w = n - 1 downto 1 do
    if is_bit_label (Cs.wire_label cs (Cs.var_of_int w)) && not (Hashtbl.mem bool_ok w) then
      out :=
        wire_finding cs "ZL030" w
          (Printf.sprintf "%s is declared boolean but no constraint enforces x*(x-1) = 0"
             (describe_wire cs w))
        :: !out
  done;
  (!out, bool_ok)

(* ZL031: "bit recomposition" constraints must sum a strict doubling chain
   of booleanity-constrained wires back into their input. *)
let recomposition_findings cs views bool_ok =
  let doubling coeffs =
    (* sorted canonical representatives must be 1, 2, 4, ... *)
    let sorted = List.sort Fp.compare coeffs in
    match sorted with
    | [] -> false
    | first :: _ ->
      Fp.equal first Fp.one
      && fst
           (List.fold_left
              (fun (ok, prev) k ->
                match prev with
                | None -> (ok, Some k)
                | Some p -> (ok && Fp.equal k (Fp.add p p), Some k))
              (true, None) sorted)
  in
  List.filter_map
    (fun c ->
      if c.clabel <> Some "bit recomposition" then None
      else
        let sides = [ c.ca; c.cb; c.cc ] in
        let nonconst = List.filter (fun lc -> const_of lc = None) sides in
        match nonconst with
        | [ lc ] -> (
          let bits, _rest =
            List.partition (fun (v, _) -> is_bit_label (Cs.wire_label cs (Cs.var_of_int v))) lc
          in
          match bits with
          | [] ->
            Some
              (constr_finding "ZL031" c
                 "recomposition constraint contains no boolean-labelled wires")
          | _ ->
            let unbound = List.filter (fun (v, _) -> not (Hashtbl.mem bool_ok v)) bits in
            if unbound <> [] then
              Some
                (constr_finding "ZL031" c
                   (Printf.sprintf
                      "recomposition reads %s without a booleanity constraint: the sum can \
                       encode values outside the range"
                      (describe_wire cs (fst (List.hd unbound)))))
            else
              (* The decomposition's own bits are the trailing block of
                 consecutively-allocated bit wires (bits_of_expr allocates
                 them back to back, immediately before this constraint).
                 Boolean wires reaching the constraint through the {e
                 recomposed expression} — e.g. a stripped less_than
                 complement summed into the input — sit at older,
                 non-contiguous indices and belong to the input side, not
                 the chain. *)
              let own_bits =
                let desc =
                  List.sort (fun (v, _) (w, _) -> compare w v) bits (* index descending *)
                in
                let rec run prev acc = function
                  | (v, k) :: rest when v = prev - 1 -> run v ((v, k) :: acc) rest
                  | _ -> acc
                in
                match desc with [] -> [] | (v, k) :: rest -> run v [ (v, k) ] rest
              in
              let coeffs = List.map snd own_bits in
              if doubling coeffs || doubling (List.map Fp.neg coeffs) then None
              else
                Some
                  (constr_finding "ZL031" c
                     "bit coefficients are not the strict doubling chain 1, 2, 4, ...: the \
                      decomposition does not sum back to its input"))
        | _ ->
          Some
            (constr_finding "ZL031" c
               "recomposition constraint does not have exactly one non-constant side"))
    views

(* The Jacobian of the constraint map at the board's assignment:
   d/dx_j (<A,w><B,w> - <C,w>) = A_j <B,w> + B_j <A,w> - C_j. *)
let jacobian_row cs (c : cview) ~min_col =
  let tbl = Hashtbl.create 8 in
  let addt v k =
    if v >= min_col && not (Fp.is_zero k) then
      let prev = Option.value (Hashtbl.find_opt tbl v) ~default:Fp.zero in
      let next = Fp.add prev k in
      if Fp.is_zero next then Hashtbl.remove tbl v else Hashtbl.replace tbl v next
  in
  let lc_val l =
    List.fold_left
      (fun acc (v, k) -> Fp.add acc (Fp.mul k (Cs.value cs (Cs.var_of_int v))))
      Fp.zero l
  in
  let av = lc_val c.ca and bv = lc_val c.cb in
  List.iter (fun (v, k) -> addt v (Fp.mul k bv)) c.ca;
  List.iter (fun (v, k) -> addt v (Fp.mul k av)) c.cb;
  List.iter (fun (v, k) -> addt v (Fp.neg k)) c.cc;
  Hashtbl.fold (fun v k acc -> (v, k) :: acc) tbl []
  |> List.sort (fun (v1, _) (v2, _) -> compare v2 v1)

(* ZL012 + ZL020/ZL021: two elimination passes.  The full-column pass
   classifies linearly dependent constraints; the auxiliary-column pass
   (public inputs treated as fixed) ranks the system and lists witness
   wires outside the pivot set. *)
let rank_analysis cs views occurs ~skip =
  let inputs = Cs.num_inputs cs and n = Cs.num_vars cs in
  let live = List.filter (fun c -> not (Hashtbl.mem skip c.idx)) views in
  (* pass 1: dependence over all variable columns *)
  let full_rows = List.map (fun c -> (c.idx, jacobian_row cs c ~min_col:1)) live in
  let _, dependent = eliminate full_rows in
  let by_idx = Hashtbl.create 97 in
  List.iter (fun c -> Hashtbl.replace by_idx c.idx c) views;
  let dep_findings =
    List.map
      (fun idx ->
        let c = Hashtbl.find by_idx idx in
        constr_finding "ZL012" c
          "linearisation at the sampled assignment is a linear combination of earlier \
           constraints: it adds no first-order binding power")
      dependent
  in
  (* pass 2: rank over auxiliary columns only *)
  let aux_rows = List.map (fun c -> (c.idx, jacobian_row cs c ~min_col:(inputs + 1))) live in
  let pivots, _ = eliminate aux_rows in
  let rank = Hashtbl.length pivots in
  let free = ref [] in
  for w = n - 1 downto inputs + 1 do
    if occurs.(w) && not (Hashtbl.mem pivots w) then
      free :=
        wire_finding cs "ZL021" w
          (Printf.sprintf
             "%s is not uniquely determined by the public inputs at the sampled assignment \
              (to first order): the prover has a degree of freedom here"
             (describe_wire cs w))
        :: !free
  done;
  let free = !free in
  let summary =
    if free = [] then []
    else
      [
        finding "ZL020"
          (Printf.sprintf
             "Jacobian rank %d leaves %d of %d auxiliary wires underdetermined at the \
              sampled assignment"
             rank (List.length free)
             (n - inputs - 1));
      ]
  in
  (dep_findings, summary @ free, rank, List.length free)

let analyze ?(name = "circuit") cs =
  Obs.with_span "lint.analyze" (fun () ->
      Obs.Counter.incr runs_counter;
      Obs.Counter.incr circuits_counter;
      let views = collect cs in
      let zl001, zl002, occurs = unconstrained_wires cs views in
      let degenerate = degenerate_constraints views in
      let duplicates = duplicate_constraints views in
      let zl030, bool_ok = missing_booleanity cs views in
      let zl031 = recomposition_findings cs views bool_ok in
      (* Constraints already classified as degenerate or duplicate would
         re-report as dependent rows; skip them in the rank passes. *)
      let skip = Hashtbl.create 97 in
      List.iter
        (fun f -> Option.iter (fun i -> Hashtbl.replace skip i ()) f.constraint_index)
        (degenerate @ duplicates);
      let zl012, rank_findings, rank, free = rank_analysis cs views occurs ~skip in
      make_report ~name
        (Circuit
           {
             num_vars = Cs.num_vars cs;
             num_inputs = Cs.num_inputs cs;
             num_constraints = Cs.num_constraints cs;
             jacobian_rank = rank;
             free_aux_wires = free;
           })
        (List.concat [ zl001; zl002; degenerate; duplicates; zl012; rank_findings; zl030; zl031 ]))

(* --- report accessors & rendering --- *)

let count sev r = List.length (List.filter (fun f -> f.severity = sev) r.findings)
let errors = count Error
let warnings = count Warn
let infos = count Info
let by_rule r id = List.filter (fun f -> f.rule = id) r.findings
let shard_set_to_string shards = "{" ^ String.concat "," (List.map string_of_int shards) ^ "}"

let finding_to_json f =
  let opt_int = function Some i -> Json.Num (float_of_int i) | None -> Json.Null in
  let opt_str = function Some s -> Json.Str s | None -> Json.Null in
  Json.Obj
    [
      ("rule", Json.Str f.rule);
      ("name", Json.Str f.rule_name);
      ("severity", Json.Str (severity_to_string f.severity));
      ("wire", opt_int f.wire);
      ("wire_label", opt_str f.wire_label);
      ("constraint", opt_int f.constraint_index);
      ("constraint_label", opt_str f.constraint_label);
      ("message", Json.Str f.message);
    ]

let to_json r =
  let int i = Json.Num (float_of_int i) in
  let ints l = Json.List (List.map int l) in
  let subject =
    match r.subject with
    | Circuit c ->
      [
        ("circuit", Json.Str r.name);
        ("num_vars", int c.num_vars);
        ("num_inputs", int c.num_inputs);
        ("num_constraints", int c.num_constraints);
        ("jacobian_rank", int c.jacobian_rank);
        ("free_aux_wires", int c.free_aux_wires);
      ]
    | Tx_kind t ->
      [
        ("kind", Json.Str r.name);
        ("cases", int t.cases);
        ("accessed_shards", ints t.accessed_shards);
        ("declared_shards", ints t.declared_shards);
      ]
    | Codec c -> [ ("codec", Json.Str r.name); ("secrets", int c.secrets); ("outputs", int c.outputs) ]
  in
  Json.Obj
    (subject
    @ [
        ( "counts",
          Json.Obj [ ("error", int (errors r)); ("warn", int (warnings r)); ("info", int (infos r)) ]
        );
        ("findings", Json.List (List.map finding_to_json r.findings));
      ])

let pp_finding ppf f =
  let subject =
    match (f.wire, f.constraint_index) with
    | Some w, _ ->
      Printf.sprintf " wire %d%s" w
        (match f.wire_label with Some l -> Printf.sprintf " (%s)" l | None -> "")
    | None, Some i ->
      Printf.sprintf " constraint #%d%s" i
        (match f.constraint_label with Some l -> Printf.sprintf " (%s)" l | None -> "")
    | None, None -> ""
  in
  Format.fprintf ppf "[%s %s]%s: %s" f.rule (severity_to_string f.severity) subject f.message

let render ?(max_per_rule = 5) r =
  let b = Buffer.create 256 in
  (match r.subject with
  | Circuit c ->
    Printf.bprintf b "%s: %d vars (%d inputs), %d constraints, rank %d, %d free" r.name
      c.num_vars c.num_inputs c.num_constraints c.jacobian_rank c.free_aux_wires
  | Tx_kind t ->
    Printf.bprintf b "%s: %d case(s), shards accessed %s declared %s" r.name t.cases
      (shard_set_to_string t.accessed_shards)
      (shard_set_to_string t.declared_shards)
  | Codec c -> Printf.bprintf b "%s: %d secret(s) against %d output(s)" r.name c.secrets c.outputs);
  Printf.bprintf b " -- %d error(s), %d warn(s)" (errors r) (warnings r);
  (* No codec rule is Info-level, so codec headers omit the count. *)
  (match r.subject with Codec _ -> () | _ -> Printf.bprintf b ", %d info(s)" (infos r));
  Buffer.add_char b '\n';
  let line f = Buffer.add_string b (Format.asprintf "  %a\n" pp_finding f) in
  List.iter (fun f -> if f.severity = Error then line f) r.findings;
  List.iter
    (fun (id, _, sev) ->
      if sev <> Error then begin
        let fs = by_rule r id in
        let total = List.length fs in
        List.iteri (fun i f -> if i < max_per_rule then line f) fs;
        if total > max_per_rule then
          Buffer.add_string b
            (Printf.sprintf "  [%s %s]: ... and %d more\n" id
               (severity_to_string sev) (total - max_per_rule))
      end)
    rules;
  Buffer.contents b

(* --- SARIF --- *)

let level_of_severity = function Error -> "error" | Warn -> "warning" | Info -> "note"

let rule_to_sarif (id, name, severity) =
  Json.Obj
    [
      ("id", Json.Str id);
      ("name", Json.Str name);
      ("defaultConfiguration", Json.Obj [ ("level", Json.Str (level_of_severity severity)) ]);
    ]

let result_to_sarif r f =
  let location =
    (match r.subject with Circuit _ -> "circuit:" | Tx_kind _ -> "tx:" | Codec _ -> "codec:")
    ^ r.name
  in
  (* Wire/constraint locators, when present, go into the message: the
     subjects are synthesised artifacts, so logical location is all the
     anchoring SARIF can do. *)
  let message =
    match (f.wire, f.constraint_index) with
    | Some w, _ -> Printf.sprintf "wire %d: %s" w f.message
    | None, Some i -> Printf.sprintf "constraint #%d: %s" i f.message
    | None, None -> f.message
  in
  Json.Obj
    [
      ("ruleId", Json.Str f.rule);
      ("level", Json.Str (level_of_severity f.severity));
      ("message", Json.Obj [ ("text", Json.Str message) ]);
      ( "locations",
        Json.List
          [
            Json.Obj
              [ ("logicalLocations", Json.List [ Json.Obj [ ("name", Json.Str location) ] ]) ];
          ] );
    ]

let to_sarif reports =
  let results = List.concat_map (fun r -> List.map (result_to_sarif r) r.findings) reports in
  Json.Obj
    [
      ( "$schema",
        Json.Str
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", Json.Str "2.1.0");
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.Str "zebra-lint");
                            ("rules", Json.List (List.map rule_to_sarif rules));
                          ] );
                    ] );
                ("results", Json.List results);
              ];
          ] );
    ]
