(* Secret-flow lint tests: synthetic leaky codecs for the ZL2xx ids, the
   deployed codec registry locked at zero findings, and a property that
   small marketplace runs settle. *)

module Lint = Zebra_lint.Lint
module Seclint = Zebra_lint.Seclint
open Zebralancer

let rng = Zebra_rng.Chacha20.create ~seed:"test_txlint"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let qtest name ?(count = 3) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let rule_ids (r : Lint.report) = List.map (fun f -> f.Lint.rule) r.Lint.findings

let check_fires rule ids =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires (got: %s)" rule (String.concat ", " ids))
    true (List.mem rule ids)

(* --- rule table --- *)

let test_rule_table () =
  let ids = List.map (fun (id, _, _) -> id) Lint.rules in
  Alcotest.(check bool) "ids sorted and unique" true (List.sort_uniq compare ids = ids);
  let severity id =
    let _, _, s = List.find (fun (i, _, _) -> i = id) Lint.rules in
    s
  in
  Alcotest.(check bool) "ZL201 is Error" true (severity "ZL201" = Lint.Error);
  Alcotest.(check bool) "ZL202 is Warn" true (severity "ZL202" = Lint.Warn)

(* --- ZL2xx negative fixtures --- *)

let test_leaky_codec () =
  let canary = random_bytes 32 in
  (* The PR 5 encoder shape: the trapdoor appended after the honest
     payload. *)
  let leaked = Bytes.cat (random_bytes 100) (Bytes.cat canary (random_bytes 4)) in
  let r =
    Seclint.analyze
      {
        Seclint.codec = "fixture.leaky";
        secrets = [ ("fixture.trapdoor", canary) ];
        outputs = [ (Seclint.Serialization, "old keypair encoder", leaked) ];
      }
  in
  check_fires "ZL201" (rule_ids r);
  Alcotest.(check int) "one error" 1 (Lint.errors r)

let test_leaky_codec_reversed () =
  let canary = random_bytes 32 in
  let rev = Bytes.init 32 (fun i -> Bytes.get canary (31 - i)) in
  let r =
    Seclint.analyze
      {
        Seclint.codec = "fixture.leaky-le";
        secrets = [ ("fixture.trapdoor", canary) ];
        outputs = [ (Seclint.Store_put, "little-endian encoder", Bytes.cat rev (random_bytes 8)) ];
      }
  in
  check_fires "ZL201" (rule_ids r)

let test_clean_codec_silent () =
  let r =
    Seclint.analyze
      {
        Seclint.codec = "fixture.clean";
        secrets = [ ("fixture.trapdoor", random_bytes 32) ];
        outputs = [ (Seclint.Serialization, "honest encoder", random_bytes 256) ];
      }
  in
  Alcotest.(check (list string)) "silent" [] (rule_ids r)

let test_short_canary () =
  let r =
    Seclint.analyze
      {
        Seclint.codec = "fixture.weak";
        secrets = [ ("fixture.stub", random_bytes 4) ];
        outputs = [ (Seclint.Log_line, "log", random_bytes 64) ];
      }
  in
  check_fires "ZL202" (rule_ids r);
  Alcotest.(check int) "warn not error" 0 (Lint.errors r)

(* --- deployed registry locks --- *)

let test_registry_codecs_clean () =
  List.iter
    (fun (c : Seclint.codec_case) ->
      let r = Seclint.analyze c in
      Alcotest.(check int) (c.Seclint.codec ^ ": zero errors") 0 (Lint.errors r);
      Alcotest.(check int) (c.Seclint.codec ^ ": zero warnings") 0 (Lint.warnings r))
    (Deployed_txs.codecs ())

(* --- property: small marketplaces settle --- *)

(* [Load.ok] over shapes test_index's property does not draw: one or two
   workers per task, one to three tasks in flight, three workers. *)
let prop_small_marketplaces_ok =
  qtest "Load.ok on small marketplace runs (1-2 workers per task, 1-3 in flight)" ~count:3
    QCheck2.Gen.(triple (int_range 2 3) (int_range 1 2) (int_range 1 3))
    (fun (tasks, workers_per_task, inflight) ->
      let config =
        {
          Load.tasks;
          workers_per_task;
          inflight;
          requesters = 2;
          workers = 3;
          budget = 20 * workers_per_task;
          seed = Printf.sprintf "test_txlint/load/%d/%d/%d" tasks workers_per_task inflight;
        }
      in
      let r = Load.run ~config () in
      Load.ok r)

let () =
  Alcotest.run "seclint"
    [
      ("rules", [ Alcotest.test_case "table" `Quick test_rule_table ]);
      ( "zl2xx-fixtures",
        [
          Alcotest.test_case "leaky codec -> ZL201" `Quick test_leaky_codec;
          Alcotest.test_case "reversed-endian leak -> ZL201" `Quick test_leaky_codec_reversed;
          Alcotest.test_case "clean codec is silent" `Quick test_clean_codec_silent;
          Alcotest.test_case "short canary -> ZL202" `Quick test_short_canary;
        ] );
      ("registry", [ Alcotest.test_case "codec registry is clean" `Slow test_registry_codecs_clean ]);
      ("property", [ prop_small_marketplaces_ok ]);
    ]
