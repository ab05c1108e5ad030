(* Anonymity demo: what an observer of the public chain actually sees.

   One worker joins two different tasks.  We dump everything the chain
   records about both participations and check that nothing links them —
   not the addresses (one-task-only wallets), not the tags (different
   prefixes), not the proofs (zero-knowledge blinding).

   Run with:  dune exec examples/anonymity_demo.exe *)

open Zebra_field
open Zebralancer
open Zebra_chain

let hex8 b = String.sub (Zebra_hashing.Sha256.to_hex b) 0 16

let () =
  Printf.printf "=== Anonymity under the microscope ===\n%!";
  let sys = Protocol.create_system ~seed:"anonymity-demo" () in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let worker = Protocol.get_ok (Protocol.enroll_r sys) in
  Printf.printf "one worker identity, registered once at the RA (leaf %d)\n%!"
    worker.Protocol.cert_index;

  let run_one label =
    let task =
      Protocol.get_ok (Protocol.publish_task_r sys ~requester
          ~policy:(Policy.Majority { choices = 4 }) ~n:1 ~budget:30 ())
    in
    let wallets = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
        ~workers:[ (worker, 1) ]) in
    let storage = Protocol.task_storage sys task.Requester.contract in
    let s = List.hd storage.Task_contract.submissions in
    Printf.printf "\ntask %s (contract %s):\n" label (Address.to_hex task.Requester.contract);
    Printf.printf "  submitting address : %s\n" (Address.to_hex s.Task_contract.worker);
    Printf.printf "  ciphertext (c1)    : %s...\n"
      (hex8 (Fp.to_bytes_be s.Task_contract.ciphertext.Zebra_elgamal.Elgamal.c1));
    Printf.printf "  link tag t1        : %s...\n" (hex8 (Fp.to_bytes_be s.Task_contract.tag));
    ignore (Protocol.get_ok (Protocol.reward_r sys task));
    (List.hd wallets, s.Task_contract.worker, s.Task_contract.tag)
  in
  let _, addr_a, tag_a = run_one "A" in
  let _, addr_b, tag_b = run_one "B" in

  Printf.printf "\nwhat links the two participations?\n";
  Printf.printf "  same address?  %b\n" (Address.equal addr_a addr_b);
  Printf.printf "  same tag?      %b\n" (Fp.equal tag_a tag_b);
  Printf.printf "  worker's pk ever on chain?  no - only H(prefix, sk) tags and proofs.\n";
  Printf.printf
    "\nthe RA itself learns nothing either: certificates are Merkle leaves,\n\
     and the SNARK hides which leaf authenticated.\n";

  (* Contrast: the SAME task would link. *)
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:30 ())
  in
  let _ = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (worker, 1) ]) in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let tag_c = (List.hd storage.Task_contract.submissions).Task_contract.tag in
  let wallet2 = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let tx =
    Protocol.answer_tx sys ~storage ~task:task.Requester.contract ~wallet:wallet2 worker ~answer:2
  in
  Printf.printf "\nbut within ONE task, a second submission by the same identity:\n";
  Printf.printf "  new tag would be %s... (same as stored %s...)\n"
    (hex8 (Fp.to_bytes_be tag_c)) (hex8 (Fp.to_bytes_be tag_c));
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  (match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Failed m; _ } -> Printf.printf "  contract says: %s\n" m
  | _ -> Printf.printf "  UNEXPECTED: accepted\n");
  Printf.printf "\nanonymity across tasks, accountability within one - the zebra's stripes.\n%!"
