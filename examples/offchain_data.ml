(* Data-intensive task with off-chain storage (paper footnote 13 and open
   question 2): the image to annotate lives in a content-addressed store;
   the task contract anchors only its 32-byte digest.  Workers fetch the
   payload from the store, verify it against the on-chain anchor, then
   participate as usual.  A light client double-checks that the submission
   really made it into a block, using headers only.

   Run with:  dune exec examples/offchain_data.exe *)

open Zebralancer
open Zebra_chain
module Store = Zebra_store.Store
module Sha256 = Zebra_hashing.Sha256

let () =
  Printf.printf "=== Off-chain data + light client ===\n%!";
  let sys = Protocol.create_system ~seed:"offchain-data" () in
  let store = Store.create ~chunk_size:1024 () in

  (* The requester uploads a 100KB "image" to the store. *)
  let image = Protocol.random_bytes sys 100_000 in
  let digest = Store.put store image in
  Printf.printf "image: %d bytes -> %d store objects, root %s...\n%!" (Bytes.length image)
    (Store.num_objects store)
    (String.sub (Sha256.to_hex digest) 0 16);

  (* Publish with the digest anchored in the contract parameters. *)
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let workers = List.map (fun _ -> Protocol.get_ok (Protocol.enroll_r sys)) [ 1; 2; 3 ] in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ~data_digest:digest ())
  in
  let storage = Protocol.task_storage sys task.Requester.contract in
  Printf.printf "contract anchors digest %s... (%d bytes on-chain, not %d)\n%!"
    (String.sub (Sha256.to_hex storage.Task_contract.params.Task_contract.data_digest) 0 16)
    (Bytes.length digest) (Bytes.length image);

  (* Each worker fetches and verifies the payload before answering. *)
  let fetched = Store.get store storage.Task_contract.params.Task_contract.data_digest in
  (match fetched with
  | Some blob when Bytes.equal blob image ->
    Printf.printf "worker fetched the payload from the store; digest verifies.\n%!"
  | _ -> failwith "payload unavailable or corrupted");

  (* Corruption in the store is detected, never silently served. *)
  let evil = Store.create ~chunk_size:1024 () in
  let evil_digest = Store.put evil image in
  Store.corrupt evil evil_digest;
  (match Store.get evil evil_digest with
  | None -> Printf.printf "a tampered store copy is rejected by hash verification.\n%!"
  | Some _ -> failwith "corruption undetected!");

  (* Run the task as usual. *)
  let wallets =
    Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:(List.map2 (fun w a -> (w, a)) workers [ 1; 1; 2 ]))
  in
  ignore wallets;
  let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
  Printf.printf "task settled; rewards %s.\n%!"
    (String.concat "," (List.map string_of_int (Array.to_list rewards)));

  (* A light client confirms the reward instruction's inclusion. *)
  let lc = Light_client.create () in
  (match Light_client.sync lc (Network.blocks sys.Protocol.net) with
  | Ok () -> ()
  | Error e -> failwith ("light client diverged: " ^ e));
  let tip = List.nth (Network.blocks sys.Protocol.net) (Light_client.height lc - 1) in
  (match tip.Block.txs with
  | tx :: _ ->
    let proof = Block.tx_proof tip 0 in
    let ok = Light_client.verify_inclusion lc ~height:tip.Block.header.Block.height tx proof in
    Printf.printf "light client verified a tip transaction from headers alone: %b\n%!" ok
  | [] -> Printf.printf "tip block empty (nothing to prove)\n%!");
  Printf.printf "done.\n%!"
