(* Off-chain content-addressed store and light-client tests. *)

open Zebra_chain
module Store = Zebra_store.Store

let rng = Zebra_rng.Chacha20.create ~seed:"test_store"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let qtest name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- store --- *)

let test_small_roundtrip () =
  let s = Store.create () in
  let blob = Bytes.of_string "hello, zebra" in
  let h = Store.put s blob in
  Alcotest.(check (option bytes)) "roundtrip" (Some blob) (Store.get s h)

let test_large_roundtrip () =
  let s = Store.create ~chunk_size:100 () in
  let blob = random_bytes 12_345 in
  let h = Store.put s blob in
  Alcotest.(check (option bytes)) "chunked roundtrip" (Some blob) (Store.get s h);
  Alcotest.(check bool) "many objects" true (Store.num_objects s > 100)

let test_empty_blob () =
  let s = Store.create () in
  let h = Store.put s Bytes.empty in
  Alcotest.(check (option bytes)) "empty" (Some Bytes.empty) (Store.get s h)

let test_deterministic_address () =
  let s = Store.create () in
  let blob = random_bytes 1000 in
  let h1 = Store.put s blob in
  let h2 = Store.put s (Bytes.copy blob) in
  Alcotest.(check bytes) "same content same address" h1 h2

let test_missing () =
  let s = Store.create () in
  Alcotest.(check (option bytes)) "absent" None (Store.get s (Bytes.make 32 'x'))

let test_corruption_detected () =
  let s = Store.create ~chunk_size:64 () in
  let blob = random_bytes 1000 in
  let h = Store.put s blob in
  Store.corrupt s h;
  Alcotest.(check (option bytes)) "corrupted root detected" None (Store.get s h)

let test_chunk_corruption_detected () =
  let s = Store.create ~chunk_size:64 () in
  let chunk_content = random_bytes 64 in
  let blob = Bytes.concat Bytes.empty [ chunk_content; random_bytes 500 ] in
  let root = Store.put s blob in
  (* corrupt the first chunk (its address is the hash of its leaf coding) *)
  let leaf_hash = Store.put (Store.create ~chunk_size:64 ()) chunk_content in
  ignore leaf_hash;
  (* easier: corrupt some stored object that is not the root *)
  let s2 = Store.create ~chunk_size:64 () in
  let root2 = Store.put s2 blob in
  ignore root2;
  Store.corrupt s root;
  Alcotest.(check (option bytes)) "detected" None (Store.get s root)

let prop_roundtrip =
  qtest "random blobs roundtrip" QCheck2.Gen.(pair (int_range 0 5000) (int_range 1 512))
    (fun (len, chunk) ->
      let s = Store.create ~chunk_size:chunk () in
      let blob = random_bytes len in
      Store.get s (Store.put s blob) = Some blob)

(* --- fault injection (Store.set_fault) --- *)

let test_fault_chunk_loss_heals () =
  let s = Store.create ~chunk_size:64 () in
  let blob = random_bytes 400 in
  (* 7 chunks + 1 manifest *)
  let h = Store.put s blob in
  (* Lose the third object the fetch touches (a mid-blob chunk). *)
  let ops = ref 0 in
  Store.set_fault s
    (Some (fun _ -> (incr ops; if !ops = 3 then Store.Lose else Store.Pass)));
  Alcotest.(check (option bytes)) "one lost chunk fails the whole get" None (Store.get s h);
  Store.set_fault s None;
  Alcotest.(check (option bytes)) "chunk stays lost without the fault" None (Store.get s h);
  let h' = Store.put s blob in
  Alcotest.(check bytes) "re-put is the same address" h h';
  Alcotest.(check (option bytes)) "re-put heals" (Some blob) (Store.get s h)

let test_fault_corruption_detected_heals () =
  let s = Store.create ~chunk_size:64 () in
  let blob = random_bytes 300 in
  let h = Store.put s blob in
  let ops = ref 0 in
  Store.set_fault s
    (Some (fun _ -> (incr ops; if !ops = 2 then Store.Corrupt else Store.Pass)));
  Alcotest.(check (option bytes)) "corrupted chunk detected, not served" None (Store.get s h);
  Store.set_fault s None;
  ignore (Store.put s blob);
  Alcotest.(check (option bytes)) "re-put heals corruption" (Some blob) (Store.get s h)

let test_fault_manifest_loss_heals () =
  let s = Store.create ~chunk_size:64 () in
  let blob = random_bytes 500 in
  let h = Store.put s blob in
  (* The first object a fetch touches is the manifest itself. *)
  let ops = ref 0 in
  Store.set_fault s
    (Some (fun _ -> (incr ops; if !ops = 1 then Store.Lose else Store.Pass)));
  Alcotest.(check (option bytes)) "lost manifest" None (Store.get s h);
  Store.set_fault s None;
  ignore (Store.put s blob);
  Alcotest.(check (option bytes)) "re-put heals the manifest" (Some blob) (Store.get s h)

(* The fault-layer contract: under ANY per-fetch fault pattern a [get] is
   complete-or-nothing — the exact blob or [None], never different bytes —
   and a re-[put] of the same content always heals. *)
let prop_fault_never_wrong_bytes =
  qtest "faulty get is all-or-nothing; re-put heals" ~count:40
    QCheck2.Gen.(
      triple (int_range 65 2000)
        (list_size (int_range 1 24) (int_range 0 2))
        (int_range 1 128))
    (fun (len, pattern, chunk) ->
      let s = Store.create ~chunk_size:chunk () in
      let blob = random_bytes len in
      let h = Store.put s blob in
      let pat = Array.of_list pattern in
      let i = ref 0 in
      Store.set_fault s
        (Some
           (fun _ ->
             let a = pat.(!i mod Array.length pat) in
             incr i;
             match a with 0 -> Store.Pass | 1 -> Store.Lose | _ -> Store.Corrupt));
      let all_or_nothing =
        match Store.get s h with None -> true | Some b -> Bytes.equal b blob
      in
      Store.set_fault s None;
      ignore (Store.put s blob);
      all_or_nothing && Store.get s h = Some blob)

(* --- light client --- *)

let wallets = lazy (Array.init 2 (fun _ -> Wallet.generate ~bits:512 ~random_bytes ()))

let test_light_client_follows () =
  let w = Lazy.force wallets in
  let net = Network.create ~num_nodes:2 ~genesis:[ (Wallet.address w.(0), 1000) ] () in
  let lc = Light_client.create () in
  for i = 0 to 4 do
    Network.submit net
      (Tx.make ~wallet:w.(0) ~nonce:i ~dst:(Tx.Call (Wallet.address w.(1))) ~value:1
         ~payload:Bytes.empty);
    ignore (Network.mine net)
  done;
  (match Light_client.sync lc (Network.blocks net) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sync failed: %s" e);
  Alcotest.(check int) "height" 5 (Light_client.height lc)

let test_light_client_inclusion () =
  let w = Lazy.force wallets in
  let net = Network.create ~num_nodes:1 ~genesis:[ (Wallet.address w.(0), 1000) ] () in
  let tx =
    Tx.make ~wallet:w.(0) ~nonce:0 ~dst:(Tx.Call (Wallet.address w.(1))) ~value:1
      ~payload:Bytes.empty
  in
  Network.submit net tx;
  ignore (Network.mine net);
  let lc = Light_client.create () in
  (match Light_client.sync lc (Network.blocks net) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sync: %s" e);
  let block = List.hd (Network.blocks net) in
  let proof = Block.tx_proof block 0 in
  Alcotest.(check bool) "inclusion verifies" true
    (Light_client.verify_inclusion lc ~height:1 tx proof);
  (* a different tx with the same proof must fail *)
  let other =
    Tx.make ~wallet:w.(0) ~nonce:1 ~dst:(Tx.Call (Wallet.address w.(1))) ~value:2
      ~payload:Bytes.empty
  in
  Alcotest.(check bool) "wrong tx rejected" false
    (Light_client.verify_inclusion lc ~height:1 other proof);
  Alcotest.(check bool) "wrong height rejected" false
    (Light_client.verify_inclusion lc ~height:2 tx proof)

let test_light_client_rejects_fork () =
  let w = Lazy.force wallets in
  let net = Network.create ~num_nodes:1 ~genesis:[ (Wallet.address w.(0), 1000) ] () in
  ignore (Network.mine net);
  let lc = Light_client.create () in
  (match Light_client.sync lc (Network.blocks net) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "sync: %s" e);
  (* a forged header not linking to the tip *)
  let bogus =
    {
      Block.height = 2;
      prev_hash = Bytes.make 32 '\000';
      state_root = Bytes.make 32 '\000';
      tx_root = Bytes.make 32 '\000';
    }
  in
  (match Light_client.push_header lc bogus with
  | Error "bad parent" -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" e
  | Ok () -> Alcotest.fail "forged header accepted");
  (* and a height skip *)
  let skip = { bogus with Block.height = 5 } in
  match Light_client.push_header lc skip with
  | Error "bad height" -> ()
  | _ -> Alcotest.fail "height skip accepted"

let test_light_client_state_root () =
  let w = Lazy.force wallets in
  let net = Network.create ~num_nodes:1 ~genesis:[ (Wallet.address w.(0), 1000) ] () in
  ignore (Network.mine net);
  let lc = Light_client.create () in
  ignore (Light_client.sync lc (Network.blocks net));
  let b = List.hd (Network.blocks net) in
  Alcotest.(check (option bytes)) "state root" (Some b.Block.header.Block.state_root)
    (Light_client.state_root lc ~height:1)

let () =
  Alcotest.run "store"
    [
      ( "cas",
        [
          Alcotest.test_case "small roundtrip" `Quick test_small_roundtrip;
          Alcotest.test_case "large roundtrip" `Quick test_large_roundtrip;
          Alcotest.test_case "empty blob" `Quick test_empty_blob;
          Alcotest.test_case "deterministic address" `Quick test_deterministic_address;
          Alcotest.test_case "missing object" `Quick test_missing;
          Alcotest.test_case "corruption detected" `Quick test_corruption_detected;
          Alcotest.test_case "chunk corruption" `Quick test_chunk_corruption_detected;
          prop_roundtrip;
        ] );
      ( "faults",
        [
          Alcotest.test_case "chunk loss heals on re-put" `Quick test_fault_chunk_loss_heals;
          Alcotest.test_case "corruption detected, heals" `Quick
            test_fault_corruption_detected_heals;
          Alcotest.test_case "manifest loss heals" `Quick test_fault_manifest_loss_heals;
          prop_fault_never_wrong_bytes;
        ] );
      ( "light-client",
        [
          Alcotest.test_case "follows headers" `Quick test_light_client_follows;
          Alcotest.test_case "tx inclusion" `Quick test_light_client_inclusion;
          Alcotest.test_case "rejects forks" `Quick test_light_client_rejects_fork;
          Alcotest.test_case "state root lookup" `Quick test_light_client_state_root;
        ] );
    ]
