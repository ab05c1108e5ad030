(* Observability layer: metric semantics, span nesting, JSON export
   round-trips, the disabled-mode no-op guarantee, and the typed-error
   Protocol API that the spans instrument. *)

open Zebralancer
module Obs = Zebra_obs.Obs
module Json = Zebra_obs.Json
module Cpla = Zebra_anonauth.Cpla

(* Every test owns the global registry. *)
let with_obs f () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* --- counters / gauges --- *)

let test_counter () =
  let c = Obs.Counter.make "t.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  let c' = Obs.Counter.make "t.counter" in
  Obs.Counter.incr c';
  Alcotest.(check int) "make is idempotent: same cell" 43 (Obs.Counter.value c);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c)

let test_gauge () =
  let g = Obs.Gauge.make "t.gauge" in
  Obs.Gauge.set g 17.5;
  Alcotest.(check (float 0.)) "set" 17.5 (Obs.Gauge.value g);
  Obs.Gauge.set g 3.0;
  Alcotest.(check (float 0.)) "overwrite" 3.0 (Obs.Gauge.value g)

(* --- histograms --- *)

let test_histogram () =
  let h = Obs.Histogram.make "t.hist" in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check bool) "empty min is nan" true (Float.is_nan (Obs.Histogram.min_value h));
  List.iter (Obs.Histogram.observe h) [ 0.001; 0.002; 0.004; 0.1 ];
  Alcotest.(check int) "count" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 0.107 (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "mean" (0.107 /. 4.) (Obs.Histogram.mean h);
  Alcotest.(check (float 0.)) "min" 0.001 (Obs.Histogram.min_value h);
  Alcotest.(check (float 0.)) "max" 0.1 (Obs.Histogram.max_value h);
  let buckets = Obs.Histogram.buckets h in
  Alcotest.(check int) "bucket counts total the count" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets);
  (* Upper bounds ascend and each observation is <= its bucket bound. *)
  let bounds = List.map fst buckets in
  Alcotest.(check bool) "bounds ascending" true (List.sort compare bounds = bounds);
  List.iter
    (fun (le, _) -> Alcotest.(check bool) "bound covers base" true (le >= 1e-6))
    buckets

let test_histogram_extremes () =
  let h = Obs.Histogram.make "t.hist.extreme" in
  Obs.Histogram.observe h 0.0;
  Obs.Histogram.observe h 1e-9;
  (* below base: clamps into the first bucket *)
  Obs.Histogram.observe h 1e9;
  (* beyond the last bound: clamps into the last bucket *)
  Alcotest.(check int) "all recorded" 3 (Obs.Histogram.count h);
  Alcotest.(check int) "all bucketed" 3
    (List.fold_left (fun acc (_, n) -> acc + n) 0 (Obs.Histogram.buckets h))

(* --- spans --- *)

let test_span_nesting () =
  Alcotest.(check (option string)) "no span open" None (Obs.current_span ());
  let result =
    Obs.with_span "t.outer" (fun () ->
        Alcotest.(check (option string)) "outer open" (Some "t.outer") (Obs.current_span ());
        Obs.with_span "t.outer.inner" (fun () ->
            Alcotest.(check (option string)) "inner visible" (Some "t.outer.inner")
              (Obs.current_span ()));
        Alcotest.(check (option string)) "outer restored" (Some "t.outer")
          (Obs.current_span ());
        7)
  in
  Alcotest.(check int) "value passed through" 7 result;
  Alcotest.(check (option string)) "stack empty again" None (Obs.current_span ());
  (match Obs.span_stats "t.outer" with
  | Some (n, total) ->
    Alcotest.(check int) "outer recorded once" 1 n;
    Alcotest.(check bool) "duration non-negative" true (total >= 0.)
  | None -> Alcotest.fail "outer span not recorded");
  Alcotest.(check bool) "inner recorded" true (Obs.span_stats "t.outer.inner" <> None);
  Alcotest.(check (list string)) "span names sorted" [ "t.outer"; "t.outer.inner" ]
    (Obs.span_names ())

let test_span_records_on_raise () =
  (try Obs.with_span "t.boom" (fun () -> failwith "expected") with Failure _ -> ());
  Alcotest.(check (option string)) "stack unwound" None (Obs.current_span ());
  match Obs.span_stats "t.boom" with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "raising region must still record its duration"

let test_disabled_noop () =
  Obs.set_enabled false;
  let c = Obs.Counter.make "t.off.counter" in
  Obs.Counter.incr c;
  Obs.Counter.add c 10;
  Alcotest.(check int) "counter frozen while disabled" 0 (Obs.Counter.value c);
  let g = Obs.Gauge.make "t.off.gauge" in
  Obs.Gauge.set g 5.0;
  Alcotest.(check (float 0.)) "gauge frozen" 0.0 (Obs.Gauge.value g);
  let h = Obs.Histogram.make "t.off.hist" in
  Obs.Histogram.observe h 1.0;
  Alcotest.(check int) "histogram frozen" 0 (Obs.Histogram.count h);
  let r = Obs.with_span "t.off.span" (fun () ->
      Alcotest.(check (option string)) "no span tracked" None (Obs.current_span ());
      3)
  in
  Alcotest.(check int) "with_span still calls through" 3 r;
  Alcotest.(check (option (pair int (float 0.)))) "no span recorded" None
    (Obs.span_stats "t.off.span");
  Obs.set_enabled true

(* A span's allocation gauge counts what is still in the nursery, so one
   body reads the same bytes however full the nursery was when the span
   opened.  A cons cell is 24 B: 1 000 fit in the nursery, 100 000 spill
   over a minor collection. *)
let test_span_alloc_bytes () =
  let g = Obs.Gauge.make "t.alloc.alloc_bytes" in
  let reading cells prior =
    ignore (Sys.opaque_identity (List.init prior Fun.id));
    Obs.with_span "t.alloc" (fun () -> ignore (Sys.opaque_identity (List.init cells Fun.id)));
    Obs.Gauge.value g
  in
  List.iter
    (fun cells ->
      let readings = List.map (reading cells) [ 0; 1_000; 10_000; 100_000 ] in
      let first = List.hd readings in
      Alcotest.(check bool)
        (Printf.sprintf "%d cells: %.0f B counted" cells first)
        true
        (first >= float_of_int (24 * cells));
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "%d cells: independent of prior allocation" cells)
        (List.map (fun _ -> first) readings)
        readings)
    [ 1_000; 100_000 ]

(* --- JSON --- *)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 0.;
      Json.Num (-3.25);
      Json.Num 1e15;
      Json.Num 0.1;
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \x01 unicode \xe2\x9c\x93";
      Json.List [ Json.Num 1.; Json.List []; Json.Obj [] ];
      Json.Obj [ ("a", Json.Num 1.); ("b", Json.Str "x"); ("nested", Json.Obj [ ("c", Json.Null) ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Json.to_string j in
      Alcotest.(check bool) ("round-trips: " ^ s) true (Json.equal j (Json.of_string s)))
    samples

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "parser accepted %S" s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}"; "[1] trailing" ]

let test_snapshot_roundtrip () =
  Obs.Counter.add (Obs.Counter.make "snap.counter") 3;
  Obs.Gauge.set (Obs.Gauge.make "snap.gauge") 2.5;
  Obs.Histogram.observe (Obs.Histogram.make "snap.hist") 0.01;
  Obs.with_span "snap.span" (fun () -> ());
  let snap = Obs.snapshot () in
  let reparsed = Json.of_string (Obs.to_json_string ()) in
  Alcotest.(check bool) "snapshot == parse (to_json_string ())" true (Json.equal snap reparsed);
  let member_exn k j =
    match Json.member k j with Some v -> v | None -> Alcotest.fail ("missing member " ^ k)
  in
  (match member_exn "counters" reparsed |> Json.member "snap.counter" with
  | Some (Json.Num 3.) -> ()
  | _ -> Alcotest.fail "counter value lost in export");
  let span = member_exn "spans" reparsed |> member_exn "snap.span" in
  (match Json.member "count" span with
  | Some (Json.Num 1.) -> ()
  | _ -> Alcotest.fail "span count lost in export");
  match Json.member "buckets" span with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "span histogram buckets lost in export"

let test_render_tree () =
  Obs.with_span "tree.phase" (fun () -> Obs.with_span "tree.phase.step" (fun () -> ()));
  Obs.Counter.incr (Obs.Counter.make "tree.count");
  let out = Obs.render_tree () in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("tree mentions " ^ needle) true (contains needle))
    [ "phase"; "step"; "count" ]

(* --- Protocol typed errors (and their spans) --- *)

(* One shared small system: CPLA setup dominates, pay it once. *)
let sys = lazy (Protocol.create_system ~tree_depth:4 ~seed:"test-obs" ())

let test_protocol_deploy_rejected () =
  let sys = Lazy.force sys in
  (* A key the RA never registered: the deployment attestation cannot match
     the on-chain root, so the task contract refuses to initialise. *)
  let forged = { Protocol.key = Cpla.keygen_rng ~rng:sys.Protocol.rng (); cert_index = 0 } in
  (match
     Protocol.publish_task_r sys ~requester:forged ~policy:(Policy.Majority { choices = 4 })
       ~n:1 ~budget:30 ()
   with
  | Error (Protocol.Rejected { phase; index; reason }) ->
    Alcotest.(check string) "the deployment phase" "task_publish" phase;
    Alcotest.(check int) "its one transaction" 0 index;
    Alcotest.(check string) "contract names the check" "requester not identified" reason
  | Ok _ -> Alcotest.fail "forged requester must not deploy"
  | Error e -> Alcotest.fail ("wrong error: " ^ Protocol.error_to_string e));
  (* [Protocol.get_ok] raises the same failure as a message. *)
  match
    Protocol.get_ok (Protocol.publish_task_r sys ~requester:forged
        ~policy:(Policy.Majority { choices = 4 }) ~n:1 ~budget:30 ())
  with
  | exception Failure m ->
    Alcotest.(check string) "get_ok message"
      "Protocol: task_publish: transaction 0 rejected: requester not identified" m
  | _ -> Alcotest.fail "get_ok must raise"

let test_protocol_submission_rejected () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w0 = Protocol.get_ok (Protocol.enroll_r sys) and w1 = Protocol.get_ok (Protocol.enroll_r sys) in
  match
    Protocol.publish_task_r sys ~requester ~policy:(Policy.Majority { choices = 2 }) ~n:1
      ~budget:30 ()
  with
  | Error e -> Alcotest.fail ("publish failed: " ^ Protocol.error_to_string e)
  | Ok task -> (
    (* Two submissions race into a 1-answer task: the task passes its one
       client-side validation, the second submission reverts on-chain and
       is identified by its submission index. *)
    match
      Protocol.submit_answers_r sys ~task:task.Requester.contract
        ~workers:[ (w0, 1); (w1, 0) ]
    with
    | Error (Protocol.Rejected { phase; index; reason }) ->
      Alcotest.(check string) "the answer phase" "answer_collection" phase;
      Alcotest.(check int) "second submission blamed" 1 index;
      Alcotest.(check string) "contract reason surfaced" "enough answers collected" reason
    | Ok _ -> Alcotest.fail "over-budget submission must be rejected"
    | Error e -> Alcotest.fail ("wrong error: " ^ Protocol.error_to_string e))

let test_protocol_phases_traced () =
  Obs.reset ();
  let sys = Lazy.force sys in
  let _task, _wallets, rewards =
    Protocol.run_task sys ~policy:(Policy.Majority { choices = 2 }) ~budget:60 ~answers:[ 0; 0 ]
  in
  Alcotest.(check int) "both majority workers paid" 2
    (Array.fold_left (fun acc r -> acc + if r > 0 then 1 else 0) 0 rewards);
  List.iter
    (fun name ->
      match Obs.span_stats name with
      | Some (n, _) when n > 0 -> ()
      | _ -> Alcotest.fail ("phase not traced: " ^ name))
    [
      "protocol.register";
      "protocol.task_publish";
      "protocol.answer_collection";
      "protocol.reward";
      "snark.setup";
      "snark.prove";
      "snark.verify";
      "chain.mine";
    ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick (with_obs test_counter);
          Alcotest.test_case "gauge" `Quick (with_obs test_gauge);
          Alcotest.test_case "histogram" `Quick (with_obs test_histogram);
          Alcotest.test_case "histogram extremes" `Quick (with_obs test_histogram_extremes);
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick (with_obs test_span_nesting);
          Alcotest.test_case "records on raise" `Quick (with_obs test_span_records_on_raise);
          Alcotest.test_case "disabled is a no-op" `Quick (with_obs test_disabled_noop);
          Alcotest.test_case "allocation counts the nursery" `Quick (with_obs test_span_alloc_bytes);
        ] );
      ( "export",
        [
          Alcotest.test_case "json roundtrip" `Quick (with_obs test_json_roundtrip);
          Alcotest.test_case "json rejects garbage" `Quick (with_obs test_json_rejects_garbage);
          Alcotest.test_case "snapshot roundtrip" `Quick (with_obs test_snapshot_roundtrip);
          Alcotest.test_case "render tree" `Quick (with_obs test_render_tree);
        ] );
      ( "protocol",
        [
          Alcotest.test_case "deploy rejected" `Slow (with_obs test_protocol_deploy_rejected);
          Alcotest.test_case "submission rejected" `Slow
            (with_obs test_protocol_submission_rejected);
          Alcotest.test_case "phases traced" `Slow (with_obs test_protocol_phases_traced);
        ] );
    ]
