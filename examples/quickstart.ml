(* Quickstart: one crowdsourcing task, end to end.

   A requester publishes an image-annotation task for 3 answers with a
   budget of 90 tokens; three anonymous workers submit encrypted labels;
   the requester proves the reward assignment; the contract pays.

   Run with:  dune exec examples/quickstart.exe *)

open Zebralancer
open Zebra_chain

let () =
  Printf.printf "=== ZebraLancer quickstart ===\n%!";

  (* Boot a simulated 3-node chain, run the CPLA trusted setup, deploy the
     registration authority's interface contract. *)
  let sys = Protocol.create_system ~seed:"quickstart" () in
  Printf.printf "system ready: %d-node chain, CPLA circuit with %d constraints\n%!"
    (Network.num_nodes sys.Protocol.net)
    (Zebra_anonauth.Cpla.circuit_size sys.Protocol.cpla);

  (* Register phase: identities obtain certificates at the RA, once. *)
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let workers = List.map (fun _ -> Protocol.get_ok (Protocol.enroll_r sys)) [ 1; 2; 3 ] in
  Printf.printf "registered 1 requester + %d workers at the RA\n%!" (List.length workers);

  (* TaskPublish: the task contract goes on-chain with the budget.  The
     label space has 4 choices; majority voting decides correctness. *)
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ())
  in
  Printf.printf "task contract at %s holding %d tokens\n%!"
    (Address.to_hex task.Requester.contract)
    (Network.balance sys.Protocol.net task.Requester.contract);

  (* AnswerCollection: workers 1 and 2 label the image 'B' (=1), worker 3
     says 'C' (=2); each submits encrypted, anonymously authenticated. *)
  let answers = [ 1; 1; 2 ] in
  let wallets =
    Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:(List.map2 (fun w a -> (w, a)) workers answers))
  in
  Printf.printf "3 encrypted submissions collected (chain sees only ciphertexts)\n%!";

  (* Reward: the requester decrypts off-chain, computes the policy rewards,
     and convinces the contract with a zk-SNARK. *)
  let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
  Printf.printf "reward instruction verified on-chain\n%!";
  List.iteri
    (fun i w ->
      Printf.printf "  worker %d answered %d -> paid %d (balance %d)\n" (i + 1)
        (List.nth answers i) rewards.(i)
        (Network.balance sys.Protocol.net (Wallet.address w)))
    wallets;
  Printf.printf "requester refund: %d\n"
    (Network.balance sys.Protocol.net (Wallet.address task.Requester.wallet));
  Printf.printf "done: majority answer was rewarded, no plaintext ever hit the chain.\n%!"
