(* Chain-event indexer tests: the event-sourced mirror must rebuild
   contract state byte-identically from blocks and receipts alone, resume
   from its cursor instead of re-reading history, detect reorgs, and agree
   with the chain after arbitrary seeded marketplace runs. *)

open Zebralancer
open Zebra_chain
module Indexer = Zebra_index.Indexer

let qtest name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let rng = Zebra_rng.Chacha20.create ~seed:"test_index"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let wallet_pool = lazy (Array.init 3 (fun _ -> Wallet.generate ~bits:512 ~random_bytes ()))
let wallet i = (Lazy.force wallet_pool).(i)

let fresh_net () =
  let genesis = List.init 3 (fun i -> (Wallet.address (wallet i), 1_000)) in
  Network.create ~num_nodes:1 ~genesis ()

let transfer ~from ~to_ ~nonce ~value =
  Tx.make ~wallet:(wallet from) ~nonce ~dst:(Tx.Call (Wallet.address (wallet to_))) ~value
    ~payload:Bytes.empty

(* --- the canonical scenario as ground truth --- *)

(* The shared fixture puts every transaction kind on chain: two task
   contracts (Instruct and Finalize settlement), a reputation board
   lifecycle and the RA interface contract.  The mirror must track all of
   it and agree byte-for-byte. *)
let test_scenario_mirror () =
  let scen = Scenario.build () in
  let net = scen.Scenario.sys.Protocol.net in
  let idx = Indexer.create () in
  let fired = ref 0 in
  Indexer.subscribe idx (fun _ -> incr fired);
  let applied = Indexer.sync idx net in
  Alcotest.(check int) "applied every block" (Network.height net) applied;
  Alcotest.(check int) "a callback fired per event" (Indexer.event_count idx) !fired;
  Alcotest.(check bool) "events were decoded" true (Indexer.event_count idx > 0);
  (match Indexer.check idx net with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
  let h, _tip = Indexer.cursor idx in
  Alcotest.(check int) "cursor at the tip" (Network.height net) h;
  Alcotest.(check int) "no reorg on a quiet chain" 0 (Indexer.reorg_count idx);
  (* Every message kind the scenario puts on chain, read off the events:
     the contracts' log lines, the behaviours deployed and the faucet's
     funding transfers. *)
  let events = Indexer.events idx in
  let logged =
    List.filter_map (function Indexer.Logged { line; _ } -> Some line | _ -> None) events
  in
  Alcotest.(check (list string)) "every log line kind"
    [
      "claimed 3";
      "credited";
      "epoch advanced";
      "fallback: budget split evenly";
      "ra root updated";
      "rewards distributed";
      "submission 1/2";
      "submission 1/3";
      "submission 2/2";
      "submission 2/3";
    ]
    (List.sort_uniq compare logged);
  let deployed =
    List.filter_map (function Indexer.Deployed { behavior; _ } -> Some behavior | _ -> None) events
  in
  Alcotest.(check (list string)) "every behaviour deployed"
    [ "zebralancer-ra"; "zebralancer-reputation"; "zebralancer-task"; "zebralancer-task" ]
    (List.sort compare deployed);
  let faucet = Wallet.address scen.Scenario.sys.Protocol.faucet in
  Alcotest.(check bool) "a faucet transfer" true
    (List.exists
       (function Indexer.Transferred { source; _ } -> Address.equal source faucet | _ -> false)
       events)

let test_cursor_resumes () =
  let scen = Scenario.build () in
  let net = scen.Scenario.sys.Protocol.net in
  let idx = Indexer.create () in
  ignore (Indexer.sync idx net);
  let before = Indexer.event_count idx in
  Alcotest.(check int) "resync applies nothing" 0 (Indexer.sync idx net);
  Alcotest.(check int) "and decodes nothing twice" before (Indexer.event_count idx);
  (* one more block: only the fresh block is read *)
  ignore (Network.mine net);
  Alcotest.(check int) "incremental sync applies the one new block" 1 (Indexer.sync idx net);
  Alcotest.(check bool) "still agrees" true (Indexer.agrees idx net)

let test_decoded_views () =
  let scen = Scenario.build () in
  let net = scen.Scenario.sys.Protocol.net in
  let idx = Indexer.create () in
  ignore (Indexer.sync idx net);
  let v = Indexing.of_indexer idx in
  Alcotest.(check int) "two tasks" 2 (List.length v.Indexing.tasks);
  Alcotest.(check int) "one reputation board" 1 (List.length v.Indexing.reputations);
  Alcotest.(check int) "one ra contract" 1 (List.length v.Indexing.ras);
  Alcotest.(check int) "nothing unclassified" 0 (List.length v.Indexing.others);
  List.iter
    (fun t ->
      Alcotest.(check string) "both tasks settled" "finished" t.Indexing.t_phase;
      Alcotest.(check int) "escrow fully paid out" 0 t.Indexing.t_balance)
    v.Indexing.tasks;
  (match v.Indexing.reputations with
  | [ r ] ->
    Alcotest.(check int) "epoch advanced" 1 r.Indexing.r_epoch;
    Alcotest.(check int) "credit claimed" 0 r.Indexing.r_unclaimed;
    Alcotest.(check (list (pair string int))) "claimed score on the pseudonym"
      [ (fst (List.hd r.Indexing.r_scores), 3) ]
      r.Indexing.r_scores
  | _ -> Alcotest.fail "expected exactly one board");
  Alcotest.(check bool) "render is non-empty and line-structured" true
    (String.length (Indexing.render v) > 0 && String.contains (Indexing.render v) '\n')

(* --- value sent to a contract address before its deployment --- *)

(* Stores the balance it saw at [init]; a call pays its whole balance to
   the address in the payload. *)
module Piggy = struct
  type storage = int

  let name = "index-piggy"
  let init (ctx : Contract.context) _args = ctx.self_balance

  let receive (ctx : Contract.context) seen payload =
    (seen, [ Contract.Transfer (Address.of_bytes payload, ctx.self_balance) ])

  let encode seen = Zebra_codec.Codec.encode Zebra_codec.Codec.u64 seen
  let decode b = Zebra_codec.Codec.decode Zebra_codec.Codec.read_u64 b
end

let () = Contract.register (module Piggy)

(* Contract addresses are predictable ([Address.of_creator]), so a plain
   transfer or a contract payout can fund one before it is deployed.  The
   chain credits the deployment on top of that balance and [init] sees
   the sum; the mirror must do the same. *)
let test_prefunded_deploy () =
  let net = fresh_net () in
  let first_contract i = Address.of_creator (Wallet.address (wallet i)) 0 in
  let send tx =
    Network.submit net tx;
    ignore (Network.mine net)
  in
  let deploy i value =
    Tx.make ~wallet:(wallet i) ~nonce:0
      ~dst:(Tx.Create { behavior = Piggy.name; args = Bytes.empty })
      ~value ~payload:Bytes.empty
  in
  send
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (first_contract 1)) ~value:7
       ~payload:Bytes.empty);
  send (deploy 1 5);
  (* the 12 it holds now go to wallet 2's first contract, deployed with 1 *)
  send
    (Tx.make ~wallet:(wallet 0) ~nonce:1 ~dst:(Tx.Call (first_contract 1)) ~value:0
       ~payload:(Address.to_bytes (first_contract 2)));
  send (deploy 2 1);
  let idx = Indexer.create () in
  ignore (Indexer.sync idx net);
  (match Indexer.check idx net with
  | Ok () -> ()
  | Error why -> Alcotest.fail why);
  Alcotest.(check (list (option int))) "mirror balances" [ Some 0; Some 13 ]
    [ Indexer.balance idx (first_contract 1); Indexer.balance idx (first_contract 2) ]

(* --- reorg detection --- *)

(* Two chains over the same genesis diverge: syncing the same indexer
   against the second chain invalidates the cursor, forcing a [Reorged]
   event and a clean re-index — nothing from the abandoned branch may
   survive. *)
let test_reorg_reindexes () =
  let net_a = fresh_net () in
  Network.submit net_a (transfer ~from:0 ~to_:1 ~nonce:0 ~value:5);
  ignore (Network.mine net_a);
  let net_b = fresh_net () in
  Network.submit net_b (transfer ~from:0 ~to_:2 ~nonce:0 ~value:9);
  ignore (Network.mine net_b);
  let idx = Indexer.create () in
  ignore (Indexer.sync idx net_a);
  Alcotest.(check int) "no reorg yet" 0 (Indexer.reorg_count idx);
  ignore (Indexer.sync idx net_b);
  Alcotest.(check int) "cursor invalidation detected" 1 (Indexer.reorg_count idx);
  Alcotest.(check bool) "reorg event emitted" true
    (List.exists
       (function Indexer.Reorged _ -> true | _ -> false)
       (Indexer.events idx));
  Alcotest.(check bool) "re-indexed state agrees with the new chain" true
    (Indexer.agrees idx net_b);
  (* the abandoned branch's transfer is gone from the rebuilt event log *)
  let post_reorg_transfers =
    List.filter_map
      (function
        | Indexer.Transferred { amount; _ } -> Some amount
        | _ -> None)
      (Indexer.events idx)
  in
  Alcotest.(check (list int)) "only the adopted branch's transfer remains" [ 5; 9 ]
    post_reorg_transfers

(* --- random marketplaces --- *)

(* The satellite property: after ANY seeded [Load.run] marketplace — many
   tasks, fee-ordered mempool, sharded executor — a fresh indexer's
   event-rebuilt contract state is byte-identical to the chain's.
   Expensive (full system boot per case), so the case count stays small. *)
let prop_load_indexer_agrees =
  qtest "indexer agrees after random Load.run marketplaces" ~count:3
    QCheck2.Gen.(pair (int_range 2 4) (int_range 0 1_000_000))
    (fun (tasks, salt) ->
      let config =
        {
          Load.default_config with
          Load.tasks;
          requesters = 2;
          workers = 4;
          workers_per_task = 2;
          inflight = 3;
          seed = Printf.sprintf "idx-load-%d-%d" tasks salt;
        }
      in
      let r = Load.run ~config () in
      r.Load.indexer_agrees && r.Load.tasks_failed = 0)

let () =
  Alcotest.run "index"
    [
      ( "mirror",
        [
          Alcotest.test_case "scenario mirror agrees" `Quick test_scenario_mirror;
          Alcotest.test_case "cursor resumes" `Quick test_cursor_resumes;
          Alcotest.test_case "decoded views" `Quick test_decoded_views;
          Alcotest.test_case "deployment onto a funded address" `Quick test_prefunded_deploy;
        ] );
      ("reorg", [ Alcotest.test_case "reorg re-indexes from genesis" `Quick test_reorg_reindexes ]);
      ("load", [ prop_load_indexer_agrees ]);
    ]
