(* Anonymous reputation across tasks and epochs — the paper's first open
   question ("can we extend our implementations to support reputation-based
   incentives?") answered with the common-prefix machinery itself.

   A worker completes two tasks; the requester credits the (public,
   anonymous) task tags; the worker aggregates the credit onto an epoch
   pseudonym with zero-knowledge link proofs.  Next epoch: fresh pseudonym,
   no connection.

   Run with:  dune exec examples/reputation_demo.exe *)

open Zebra_field
open Zebralancer
open Zebra_chain

let hex8 x = String.sub (Zebra_hashing.Sha256.to_hex (Fp.to_bytes_be x)) 0 16

let () =
  Printf.printf "=== Anonymous reputation (epoch pseudonyms) ===\n%!";
  let sys = Protocol.create_system ~seed:"reputation-demo" () in
  Reputation_contract.register ();
  let rb = Protocol.random_bytes sys in
  let rep_params =
    Reputation.setup_cached sys.Protocol.keycache
      ~seed:(sys.Protocol.setup_seed ^ "/reputation-link")
  in
  Printf.printf "link circuit: %d constraints\n%!" (Reputation.circuit_size rep_params);

  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let worker = Protocol.get_ok (Protocol.enroll_r sys) in

  (* The requester operates a reputation board. *)
  let op = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:100) in
  let deploy =
    Tx.make ~wallet:op ~nonce:0
      ~dst:
        (Tx.Create
           {
             behavior = Reputation_contract.behavior_name;
             args = Reputation_contract.init_args ~link_vk:(Reputation.vk_bytes rep_params);
           })
      ~value:0 ~payload:Bytes.empty
  in
  Network.submit sys.Protocol.net deploy;
  ignore (Network.mine sys.Protocol.net);
  let board = Address.of_creator (Wallet.address op) 0 in

  let call wallet msg =
    let tx =
      Tx.make ~wallet ~nonce:(Network.nonce sys.Protocol.net (Wallet.address wallet))
        ~dst:(Tx.Call board) ~value:0
        ~payload:(Reputation_contract.message_to_bytes msg)
    in
    Network.submit sys.Protocol.net tx;
    ignore (Network.mine sys.Protocol.net);
    match Option.get (Network.receipt sys.Protocol.net (Tx.hash tx)) with
    | { State.status = State.Ok _; _ } -> ()
    | { State.status = State.Failed m; _ } -> failwith m
  in

  (* Two tasks; the worker answers with the majority both times. *)
  let run_task () =
    let task =
      Protocol.get_ok (Protocol.publish_task_r sys ~requester
          ~policy:(Policy.Majority { choices = 4 }) ~n:1 ~budget:30 ())
    in
    let _ = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
        ~workers:[ (worker, 1) ]) in
    ignore (Protocol.get_ok (Protocol.reward_r sys task));
    let storage = Protocol.task_storage sys task.Requester.contract in
    let s = List.hd storage.Task_contract.submissions in
    (Address.to_field task.Requester.contract, s.Task_contract.tag)
  in
  let prefix1, tag1 = run_task () in
  let prefix2, tag2 = run_task () in
  Printf.printf "task tags on chain: %s... and %s... (unlinkable)\n%!" (hex8 tag1) (hex8 tag2);

  (* Requester commends both tags. *)
  call op (Reputation_contract.Credit { task_tag = tag1; task_prefix = prefix1; score = 3 });
  call op (Reputation_contract.Credit { task_tag = tag2; task_prefix = prefix2; score = 4 });

  (* Worker aggregates onto one epoch-0 pseudonym. *)
  let key = worker.Protocol.key in
  let pseudonym = Reputation.epoch_pseudonym key ~epoch:0 in
  List.iter
    (fun (prefix, tag) ->
      let proof = Reputation.prove_link ~random_bytes:rb rep_params ~key ~task_prefix:prefix ~epoch:0 in
      call op
        (Reputation_contract.Claim
           { task_tag = tag; pseudonym; proof = Zebra_snark.Snark.proof_to_bytes proof }))
    [ (prefix1, tag1); (prefix2, tag2) ];
  let st = Reputation_contract.storage_of_bytes (Option.get (Network.contract_storage sys.Protocol.net board)) in
  Printf.printf "pseudonym %s... now holds score %d\n%!" (hex8 pseudonym)
    (Reputation_contract.score st pseudonym);

  (* New epoch: a fresh, unconnected pseudonym. *)
  call op Reputation_contract.Advance_epoch;
  let pseudonym1 = Reputation.epoch_pseudonym key ~epoch:1 in
  Printf.printf "epoch advanced; next pseudonym %s... shares nothing with %s...\n%!"
    (hex8 pseudonym1) (hex8 pseudonym);
  Printf.printf
    "reputation accrues within an epoch, evaporates linkage across epochs -\n\
     the same zebra stripes, one level up.\n%!"
