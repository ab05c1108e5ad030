(* Static-analyzer tests: one deliberately broken circuit per rule family
   asserting the exact rule id fires, a clean circuit asserting silence,
   the deployed-circuit registry locked at zero Error findings, and
   property tests that linting is read-only — it never mutates the board
   and never changes what setup/prove/verify produce. *)

open Zebra_field
open Zebra_r1cs
module Lint = Zebra_lint.Lint
module Snark = Zebra_snark.Snark
module Obs = Zebra_obs.Obs

let rng = Zebra_rng.Chacha20.create ~seed:"test_lint"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let qtest name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let rule_ids report = List.map (fun f -> f.Lint.rule) report.Lint.findings

(* (Jacobian rank, free aux wires) of a circuit report. *)
let rank_and_free report =
  match report.Lint.subject with
  | Lint.Circuit c -> (c.jacobian_rank, c.free_aux_wires)
  | Lint.Tx_kind _ | Lint.Codec _ -> Alcotest.fail "not a circuit report"

let check_fires rule report =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires (got: %s)" rule (String.concat ", " (rule_ids report)))
    true
    (Lint.by_rule report rule <> [])

(* Fully determined demo circuit: x^3 + x + 5 = y with public y.  Every
   auxiliary wire is pinned by the public input, so a correct analyzer has
   nothing to say about it. *)
let clean_circuit x =
  let cs = Cs.create () in
  let y_val = Fp.add (Fp.add (Fp.mul x (Fp.mul x x)) x) (Fp.of_int 5) in
  let y = Cs.alloc_input cs ~label:"y" y_val in
  let vx = Cs.alloc cs ~label:"x" x in
  let open Gadgets in
  let x2 = square cs (v vx) in
  let x3 = mul cs (v x2) (v vx) in
  enforce_eq cs ~label:"cubic" (v x3 +: v vx +: ci 5) (v y);
  cs

(* --- rule table --- *)

let test_rule_table () =
  let ids = List.map (fun (id, _, _) -> id) Lint.rules in
  Alcotest.(check bool) "ids sorted and unique" true (List.sort_uniq compare ids = ids);
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " is Error") true
        (List.exists (fun (i, _, s) -> i = id && s = Lint.Error) Lint.rules))
    [ "ZL001"; "ZL013"; "ZL030"; "ZL031" ]

(* --- clean circuit stays silent --- *)

let test_clean_circuit_silent () =
  let report = Lint.analyze ~name:"clean" (clean_circuit (Fp.of_int 2)) in
  Alcotest.(check (list string)) "no findings" [] (rule_ids report);
  Alcotest.(check int) "no free aux wires" 0 (snd (rank_and_free report))

(* --- one broken circuit per rule --- *)

let test_zl001_unconstrained_wire () =
  let cs = clean_circuit (Fp.of_int 2) in
  let _orphan = Cs.alloc cs ~label:"orphan" (Fp.of_int 9) in
  let report = Lint.analyze cs in
  check_fires "ZL001" report;
  match Lint.by_rule report "ZL001" with
  | [ f ] ->
    Alcotest.(check (option string)) "provenance label" (Some "orphan") f.Lint.wire_label;
    Alcotest.(check bool) "severity Error" true (f.Lint.severity = Lint.Error)
  | fs -> Alcotest.failf "expected exactly one ZL001, got %d" (List.length fs)

let test_zl002_unused_public_input () =
  let cs = Cs.create () in
  let _ghost = Cs.alloc_input cs ~label:"ghost" (Fp.of_int 3) in
  let a = Cs.alloc cs (Fp.of_int 2) in
  Gadgets.(enforce_eq cs (v a) (ci 2));
  let report = Lint.analyze cs in
  check_fires "ZL002" report

let test_zl010_trivial_constraint () =
  let cs = clean_circuit (Fp.of_int 2) in
  Cs.enforce cs ~label:"vacuous" [] [] [];
  check_fires "ZL010" (Lint.analyze cs)

let test_zl011_duplicate_constraint () =
  let cs = Cs.create () in
  let a = Cs.alloc cs (Fp.of_int 2) and b = Cs.alloc cs (Fp.of_int 3) in
  let open Gadgets in
  enforce_eq cs ~label:"sum" (v a +: v b) (ci 5);
  enforce_eq cs ~label:"sum again" (v a +: v b) (ci 5);
  check_fires "ZL011" (Lint.analyze cs)

let test_zl012_dependent_constraint () =
  let cs = Cs.create () in
  let a = Cs.alloc cs (Fp.of_int 2) and b = Cs.alloc cs (Fp.of_int 3) in
  let open Gadgets in
  enforce_eq cs (v a +: v b) (ci 5);
  (* twice the first row: same kernel, different canonical form, so it is
     not a ZL011 duplicate — only the rank pass can see it *)
  enforce_eq cs (scale (Fp.of_int 2) (v a) +: scale (Fp.of_int 2) (v b)) (ci 10);
  let report = Lint.analyze cs in
  check_fires "ZL012" report;
  Alcotest.(check bool) "no ZL011 for scaled row" true (Lint.by_rule report "ZL011" = [])

let test_zl013_unsatisfiable_constant () =
  let cs = clean_circuit (Fp.of_int 2) in
  Cs.enforce cs ~label:"impossible" [] [] [ (Fp.one, Cs.one_var) ];
  let report = Lint.analyze cs in
  check_fires "ZL013" report;
  Alcotest.(check bool) "counted as error" true (Lint.errors report > 0)

let test_zl020_zl021_rank_deficiency () =
  let cs = Cs.create () in
  let a = Cs.alloc cs ~label:"a" (Fp.of_int 2) and b = Cs.alloc cs ~label:"b" (Fp.of_int 3) in
  (* one constraint, three aux wires: the product pins only one of them *)
  let _out = Gadgets.(mul cs (v a) (v b)) in
  let report = Lint.analyze cs in
  check_fires "ZL020" report;
  Alcotest.(check int) "two free wires" 2 (List.length (Lint.by_rule report "ZL021"));
  Alcotest.(check (pair int int)) "rank one, two free in report" (1, 2) (rank_and_free report)

let test_zl030_missing_booleanity () =
  let cs = Cs.create () in
  (* claims to be a bit via the label contract, but only a linear
     constraint pins it — nothing stops a prover putting 7 here if the
     constraint set ever loosens *)
  let fake = Cs.alloc cs ~label:"bit:fake" Fp.one in
  Gadgets.(enforce_eq cs (v fake) (ci 1));
  let report = Lint.analyze cs in
  check_fires "ZL030" report;
  (* the honest allocator is silent *)
  let cs2 = Cs.create () in
  let real = Gadgets.alloc_bit cs2 ~label:"real" true in
  Gadgets.(enforce_eq cs2 (v real) (ci 1));
  Alcotest.(check bool) "alloc_bit passes" true
    (Lint.by_rule (Lint.analyze cs2) "ZL030" = [])

let test_zl031_broken_recomposition () =
  let cs = Cs.create () in
  let b0 = Gadgets.alloc_bit cs true and b1 = Gadgets.alloc_bit cs true in
  (* coefficients 1,3 instead of the doubling chain 1,2: values 4 and 2+3i
     collide, the "range check" proves nothing *)
  Cs.enforce cs ~label:"bit recomposition"
    [ (Fp.one, b0); (Fp.of_int 3, b1); (Fp.neg (Fp.of_int 4), Cs.one_var) ]
    [ (Fp.one, Cs.one_var) ]
    [];
  check_fires "ZL031" (Lint.analyze cs);
  (* a genuine bits_of_expr decomposition is silent *)
  let cs2 = Cs.create () in
  let x = Cs.alloc cs2 (Fp.of_int 9) in
  let _bits = Gadgets.(bits_of_expr cs2 (v x) 4) in
  Alcotest.(check bool) "bits_of_expr passes" true
    (Lint.by_rule (Lint.analyze cs2) "ZL031" = [])

(* --- deployed circuits: the acceptance gate --- *)

let test_deployed_circuits_no_errors () =
  List.iter
    (fun (name, synth) ->
      let report = Lint.analyze ~name (synth ()) in
      Alcotest.(check int) (name ^ ": zero Error findings") 0 (Lint.errors report);
      List.iter
        (fun rule ->
          Alcotest.(check (list string)) (name ^ ": no " ^ rule) []
            (List.map (fun f -> f.Lint.message) (Lint.by_rule report rule)))
        [ "ZL001"; "ZL011"; "ZL013"; "ZL030"; "ZL031" ])
    (Zebralancer.Deployed.circuits ())

(* Every circuit that hashes is deployed as two registry arms, one per
   hash composition, and has no bare-name entry; the hash-free reward
   circuits are listed once, under their bare names. *)
let test_deployed_composition_arms () =
  let names = Zebralancer.Deployed.names () in
  let listed name expected =
    Alcotest.(check bool) (name ^ if expected then " listed" else " not listed") expected
      (List.mem name names)
  in
  List.iter
    (fun base ->
      listed (base ^ "-poseidon") true;
      listed (base ^ "-mimc") true;
      listed base false)
    [ "cpla-depth8"; "cpla-depth16"; "reputation-link" ];
  List.iter
    (fun base ->
      listed base true;
      listed (base ^ "-poseidon") false;
      listed (base ^ "-mimc") false)
    [ "reward-majority-n3"; "reward-majority-n5"; "reward-quota-n3"; "reward-auction-n4" ];
  Alcotest.(check int) "12 deployed circuits" 12 (List.length names);
  (* and the two arms of the same base are different circuits *)
  let constraints name =
    match Zebralancer.Deployed.find name with
    | Some synth -> Cs.num_constraints (synth ())
    | None -> Alcotest.fail (name ^ " not found")
  in
  Alcotest.(check bool) "cpla arms differ" true
    (constraints "cpla-depth8-poseidon" < constraints "cpla-depth8-mimc")

(* --- observability --- *)

let test_obs_counters () =
  Obs.reset ();
  Obs.set_enabled true;
  let cs = clean_circuit (Fp.of_int 2) in
  let _orphan = Cs.alloc cs (Fp.of_int 9) in
  let report = Lint.analyze cs in
  Obs.set_enabled false;
  Alcotest.(check int) "one error" 1 (Lint.errors report);
  let count name = Obs.Counter.value (Obs.Counter.make name) in
  Alcotest.(check int) "lint.runs" 1 (count "lint.runs");
  Alcotest.(check int) "lint.rule.zl001" 1 (count "lint.rule.zl001");
  Alcotest.(check int) "lint.findings.error" 1 (count "lint.findings.error");
  Obs.reset ()

(* --- purity: analysis must not change the board or the SNARK --- *)

let lc_repr lc = List.map (fun (k, v) -> (Fp.to_bytes_be k, Cs.int_of_var v)) lc

let board_repr cs =
  ( Cs.num_vars cs,
    Cs.num_inputs cs,
    Cs.num_constraints cs,
    Array.map (fun (a, b, c) -> (lc_repr a, lc_repr b, lc_repr c)) (Cs.constraints cs),
    Array.map Fp.to_bytes_be (Cs.assignment cs) )

let prop_lint_read_only =
  qtest "analyze leaves the board bit-identical" ~count:25
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let cs = clean_circuit (Fp.of_int (seed + 2)) in
      let _orphan = Cs.alloc cs ~label:"bit:odd" (Fp.of_int seed) in
      let before = board_repr cs in
      let _report = Lint.analyze cs in
      board_repr cs = before)

let prop_lint_preserves_proofs =
  qtest "setup/prove/verify unchanged by a prior lint" ~count:8
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let x = Fp.of_int (seed + 2) in
      let run ~lint_first =
        let cs = clean_circuit x in
        if lint_first then ignore (Lint.analyze cs : Lint.report);
        let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "lint-pure-%d" seed) in
        let src = Zebra_rng.Source.of_chacha r in
        let { Snark.pk; vk; _ } = Snark.setup_rng ~rng:src cs in
        let proof = Snark.prove_rng ~rng:src pk cs in
        assert (Snark.verify vk ~public_inputs:(Cs.public_inputs cs) proof);
        Snark.proof_to_bytes proof
      in
      Bytes.equal (run ~lint_first:false) (run ~lint_first:true))

let () =
  ignore random_bytes;
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "rule table" `Quick test_rule_table;
          Alcotest.test_case "clean circuit silent" `Quick test_clean_circuit_silent;
          Alcotest.test_case "ZL001 unconstrained wire" `Quick test_zl001_unconstrained_wire;
          Alcotest.test_case "ZL002 unused public input" `Quick test_zl002_unused_public_input;
          Alcotest.test_case "ZL010 trivial constraint" `Quick test_zl010_trivial_constraint;
          Alcotest.test_case "ZL011 duplicate constraint" `Quick
            test_zl011_duplicate_constraint;
          Alcotest.test_case "ZL012 dependent constraint" `Quick
            test_zl012_dependent_constraint;
          Alcotest.test_case "ZL013 unsatisfiable constant" `Quick
            test_zl013_unsatisfiable_constant;
          Alcotest.test_case "ZL020/ZL021 rank deficiency" `Quick
            test_zl020_zl021_rank_deficiency;
          Alcotest.test_case "ZL030 missing booleanity" `Quick test_zl030_missing_booleanity;
          Alcotest.test_case "ZL031 broken recomposition" `Quick
            test_zl031_broken_recomposition;
        ] );
      ( "deployed",
        [
          Alcotest.test_case "registry has zero errors" `Slow test_deployed_circuits_no_errors;
          Alcotest.test_case "composition arms listed" `Quick test_deployed_composition_arms;
        ] );
      ( "integration",
        [
          Alcotest.test_case "obs counters" `Quick test_obs_counters;
          prop_lint_read_only;
          prop_lint_preserves_proofs;
        ] );
    ]
