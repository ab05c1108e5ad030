(* Chain-layer lint tests: one deliberately broken transaction kind per
   ZL1xx rule asserting the exact id fires, a correctly-declared kind
   asserting silence, synthetic leaky codecs for the ZL2xx ids, the
   deployed tx-kind registry locked at zero Error findings with exact
   accessed/declared shard agreement (the settlement-footprint
   cross-check), and a property that random marketplace runs never escape
   a declared footprint. *)

module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Contract = Zebra_chain.Contract
module Lint = Zebra_lint.Lint
module Txlint = Zebra_lint.Txlint
module Seclint = Zebra_lint.Seclint
open Zebralancer

let rng = Zebra_rng.Chacha20.create ~seed:"test_txlint"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let shard_of_address a = State.shard_of_key (Address.to_hex a)

let qtest name ?(count = 3) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let rule_ids (r : Lint.report) = List.map (fun f -> f.Lint.rule) r.Lint.findings

(* (accessed, declared) shards of a tx-kind report. *)
let shards (r : Lint.report) =
  match r.Lint.subject with
  | Lint.Tx_kind t -> (t.accessed_shards, t.declared_shards)
  | Lint.Circuit _ | Lint.Codec _ -> Alcotest.fail (r.Lint.name ^ " is not a tx-kind report")

let check_fires rule ids =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires (got: %s)" rule (String.concat ", " ids))
    true (List.mem rule ids)

let check_silent rule ids =
  Alcotest.(check bool)
    (Printf.sprintf "%s silent (got: %s)" rule (String.concat ", " ids))
    false (List.mem rule ids)

(* --- the lint-scatter fixture behaviour ---

   Transfers the call value to an address decoded from the payload — a
   state access the caller can choose to declare (or not) in the
   transaction footprint, which is exactly the degree of freedom ZL101 and
   ZL102 police.  An empty payload reverts, giving ZL103 its vacuous
   case. *)
module Scatter = struct
  type storage = unit

  let name = "lint-scatter"
  let init _ctx _args = ()

  let receive ctx () payload =
    if Bytes.length payload = 0 then raise (Contract.Revert "lint-scatter: empty payload");
    ((), [ Contract.Transfer (Address.of_bytes payload, ctx.Contract.value) ])

  let encode () = Bytes.empty
  let decode _ = ()
end

let () = Contract.register (module Scatter)

type fixture = {
  st : State.t;
  wallet : Wallet.t;
  scatter : Address.t;
  payee : Address.t;  (** shard disjoint from sender and contract *)
  unused : Address.t;  (** shard disjoint from sender, contract and payee *)
}

let fixture =
  lazy
    (let wallet = Wallet.generate ~random_bytes () in
     let sender = Wallet.address wallet in
     let st = State.create ~genesis:[ (sender, 1_000) ] in
     let deploy =
       Tx.make ~wallet ~nonce:0
         ~dst:(Tx.Create { behavior = Scatter.name; args = Bytes.empty })
         ~value:0 ~payload:Bytes.empty
     in
     (match State.apply_tx st ~height:0 deploy with
     | { State.status = State.Ok _; _ } -> ()
     | { State.status = State.Failed m; _ } -> failwith ("fixture deploy failed: " ^ m));
     let scatter = Address.of_creator sender 0 in
     (* Mint fixture addresses in pairwise-disjoint shards, so an
        undeclared access and a vacuous declaration are unambiguous. *)
     let rec fresh used k =
       let a = Address.of_creator scatter k in
       if List.mem (shard_of_address a) used then fresh used (k + 1) else a
     in
     let used = [ shard_of_address sender; shard_of_address scatter ] in
     let payee = fresh used 0 in
     let unused = fresh (shard_of_address payee :: used) 0 in
     { st; wallet; scatter; payee; unused })

(* Trace one scatter call (nonce 1: the only mutation of [st] is the
   deploy — tracing rolls every case back). *)
let scatter_report ~kind ~footprint ~payload =
  let fx = Lazy.force fixture in
  let tx =
    Tx.make_ext ~wallet:fx.wallet ~fee:0 ~footprint ~nonce:1 ~dst:(Tx.Call fx.scatter) ~value:5
      ~payload
  in
  Txlint.analyze ~kind [ Txlint.trace_case ~kind ~case:"fixture" fx.st ~height:1 tx ]

(* --- rule table --- *)

let test_rule_table () =
  let ids = List.map (fun (id, _, _) -> id) Lint.rules in
  Alcotest.(check bool) "ids sorted and unique" true (List.sort_uniq compare ids = ids);
  let severity id =
    let _, _, s = List.find (fun (i, _, _) -> i = id) Lint.rules in
    s
  in
  List.iter
    (fun id -> Alcotest.(check bool) (id ^ " is Error") true (severity id = Lint.Error))
    [ "ZL101"; "ZL102"; "ZL103"; "ZL201" ];
  Alcotest.(check bool) "ZL110 is Info" true (severity "ZL110" = Lint.Info);
  Alcotest.(check bool) "ZL202 is Warn" true (severity "ZL202" = Lint.Warn)

(* --- ZL1xx negative fixtures --- *)

let test_under_declared () =
  let fx = Lazy.force fixture in
  let r =
    scatter_report ~kind:"scatter.under" ~footprint:[] ~payload:(Address.to_bytes fx.payee)
  in
  check_fires "ZL101" (rule_ids r);
  check_silent "ZL102" (rule_ids r);
  check_silent "ZL103" (rule_ids r);
  let accessed, declared = shards r in
  Alcotest.(check bool) "payee shard was accessed" true
    (List.mem (shard_of_address fx.payee) accessed);
  Alcotest.(check bool) "payee shard was not declared" false
    (List.mem (shard_of_address fx.payee) declared)

let test_over_declared () =
  let fx = Lazy.force fixture in
  let r =
    scatter_report ~kind:"scatter.over"
      ~footprint:[ fx.payee; fx.unused ]
      ~payload:(Address.to_bytes fx.payee)
  in
  check_fires "ZL102" (rule_ids r);
  check_silent "ZL101" (rule_ids r);
  (* The finding names the vacuous address, not the useful one. *)
  let msgs =
    List.filter_map
      (fun f -> if f.Lint.rule = "ZL102" then Some f.Lint.message else None)
      r.Lint.findings
  in
  Alcotest.(check int) "one vacuous declaration" 1 (List.length msgs);
  Alcotest.(check bool) "finding names the unused address" true
    (List.exists
       (fun m ->
         let hex = Address.to_hex fx.unused in
         let needle_len = String.length hex in
         let rec occurs i =
           i + needle_len <= String.length m && (String.sub m i needle_len = hex || occurs (i + 1))
         in
         occurs 0)
       msgs)

let test_vacuous_case () =
  let r = scatter_report ~kind:"scatter.revert" ~footprint:[] ~payload:Bytes.empty in
  check_fires "ZL103" (rule_ids r);
  check_silent "ZL101" (rule_ids r)

let test_exact_declaration_silent () =
  let fx = Lazy.force fixture in
  let r =
    scatter_report ~kind:"scatter.ok" ~footprint:[ fx.payee ]
      ~payload:(Address.to_bytes fx.payee)
  in
  Alcotest.(check int) "no errors" 0 (Lint.errors r);
  Alcotest.(check int) "no warnings" 0 (Lint.warnings r);
  check_fires "ZL110" (rule_ids r);
  let accessed, declared = shards r in
  Alcotest.(check (list int)) "accessed = declared" accessed declared;
  let sig_ = Txlint.conflict_signature r in
  Alcotest.(check bool) ("signature names the kind: " ^ sig_) true
    (String.length sig_ > 10 && String.sub sig_ 0 10 = "scatter.ok")

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

let test_registry_zero_errors () =
  let reports = Txlint.analyze_all (Deployed_txs.cases ()) in
  Alcotest.(check bool) "at least 10 kinds" true (List.length reports >= 10);
  List.iter
    (fun (r : Lint.report) ->
      Alcotest.(check int) (r.Lint.name ^ ": zero errors") 0 (Lint.errors r);
      let accessed, declared = shards r in
      Alcotest.(check (list int)) (r.Lint.name ^ ": accessed = declared") accessed declared)
    reports

let test_registry_kinds () =
  let expected =
    [
      "deploy.zebralancer-ra";
      "deploy.zebralancer-reputation";
      "deploy.zebralancer-task";
      "transfer";
      "zebralancer-ra.set-root";
      "zebralancer-reputation.advance-epoch";
      "zebralancer-reputation.claim";
      "zebralancer-reputation.credit";
      "zebralancer-task.finalize";
      "zebralancer-task.instruct";
      "zebralancer-task.submit";
    ]
  in
  Alcotest.(check (list string)) "registry covers every deployed kind" expected (Deployed_txs.kinds ())

(* The settlement-footprint cross-check: [Requester.settlement_footprint]
   is the single source of the payee declarations for both Instruct and
   Finalize, so those kinds must declare exactly what execution touches —
   no escape, no vacuous shard. *)
let test_settlement_footprint_exact () =
  let reports = Txlint.analyze_all (Deployed_txs.cases ()) in
  List.iter
    (fun kind ->
      match List.find_opt (fun (r : Lint.report) -> r.Lint.name = kind) reports with
      | None -> Alcotest.fail ("kind missing from registry: " ^ kind)
      | Some r ->
        Alcotest.(check int) (kind ^ ": zero errors") 0 (Lint.errors r);
        let accessed, declared = shards r in
        Alcotest.(check (list int)) (kind ^ ": declared exactly the accessed shards") accessed
          declared)
    [ "zebralancer-task.instruct"; "zebralancer-task.finalize" ]

let test_registry_codecs_clean () =
  List.iter
    (fun (c : Seclint.codec_case) ->
      let r = Seclint.analyze c in
      Alcotest.(check int) (c.Seclint.codec ^ ": zero errors") 0 (Lint.errors r);
      Alcotest.(check int) (c.Seclint.codec ^ ": zero warnings") 0 (Lint.warnings r))
    (Deployed_txs.codecs ())

(* --- property: kinds that pass ZL1xx never escape at runtime --- *)

let prop_no_conflict_retries =
  qtest "random marketplace runs never escape a declared footprint" ~count:3
    QCheck2.Gen.(triple (int_range 2 3) (int_range 1 2) (int_range 1 3))
    (fun (tasks, workers_per_task, inflight) ->
      let config =
        {
          Load.default_config with
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
      Load.ok r && r.Load.conflict_retries = 0)

let () =
  Alcotest.run "txlint"
    [
      ("rules", [ Alcotest.test_case "table" `Quick test_rule_table ]);
      ( "zl1xx-fixtures",
        [
          Alcotest.test_case "under-declared -> ZL101" `Quick test_under_declared;
          Alcotest.test_case "over-declared -> ZL102" `Quick test_over_declared;
          Alcotest.test_case "vacuous case -> ZL103" `Quick test_vacuous_case;
          Alcotest.test_case "exact declaration is silent" `Quick test_exact_declaration_silent;
        ] );
      ( "zl2xx-fixtures",
        [
          Alcotest.test_case "leaky codec -> ZL201" `Quick test_leaky_codec;
          Alcotest.test_case "reversed-endian leak -> ZL201" `Quick test_leaky_codec_reversed;
          Alcotest.test_case "clean codec is silent" `Quick test_clean_codec_silent;
          Alcotest.test_case "short canary -> ZL202" `Quick test_short_canary;
        ] );
      ( "registry",
        [
          Alcotest.test_case "tx kinds are zero-error" `Slow test_registry_zero_errors;
          Alcotest.test_case "kind list is locked" `Slow test_registry_kinds;
          Alcotest.test_case "settlement footprints are exact" `Slow test_settlement_footprint_exact;
          Alcotest.test_case "codec registry is clean" `Slow test_registry_codecs_clean;
        ] );
      ("property", [ prop_no_conflict_retries ]);
    ]
