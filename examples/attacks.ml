(* Attack gallery: every adversarial behaviour from the paper's security
   analysis, demonstrated live against the contract — and defeated.

   Run with:  dune exec examples/attacks.exe *)

open Zebralancer
open Zebra_chain
module Ra = Zebra_anonauth.Ra
module Cpla = Zebra_anonauth.Cpla

let sys = lazy (Protocol.create_system ~seed:"attack-gallery" ())

let rb n = Protocol.random_bytes (Lazy.force sys) n

let scenario name f =
  Printf.printf "\n--- %s ---\n%!" name;
  f (Lazy.force sys)

let submit_and_mine sys tx =
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Ok _; _ } -> Printf.printf "  -> ACCEPTED\n%!"
  | Some { State.status = State.Failed m; _ } -> Printf.printf "  -> REJECTED: %s\n%!" m
  | None -> Printf.printf "  -> not mined\n%!"

let worker_tx sys ~task ~wallet ~identity ~answer =
  let storage = Protocol.task_storage sys task in
  Worker.submit_tx ~random_bytes:rb ~cpla:sys.Protocol.cpla ~storage ~contract:task ~wallet
    ~key:identity.Protocol.key ~cert_index:identity.Protocol.cert_index
    ~ra_path:(Ra.path sys.Protocol.ra identity.Protocol.cert_index)
    ~answer
    ~nonce:(Network.nonce sys.Protocol.net (Wallet.address wallet))

let () =
  Printf.printf "=== ZebraLancer attack gallery ===\n%!";

  scenario "free-rider: submit the same answer twice for double pay" (fun sys ->
      let requester = Protocol.get_ok (Protocol.enroll_r sys) in
      let cheater = Protocol.get_ok (Protocol.enroll_r sys) in
      let task =
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ())
      in
      Printf.printf "cheater submits from fresh address #1:\n";
      submit_and_mine sys
        (worker_tx sys ~task:task.Requester.contract
           ~wallet:(Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10))
           ~identity:cheater ~answer:1);
      Printf.printf "cheater submits AGAIN from fresh address #2 (anonymity abuse):\n";
      submit_and_mine sys
        (worker_tx sys ~task:task.Requester.contract
           ~wallet:(Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10))
           ~identity:cheater ~answer:1);
      Printf.printf "  the common-prefix tag t1 = H(task, sk) linked the two submissions.\n%!");

  scenario "free-rider: copy a pending ciphertext from the mempool" (fun sys ->
      let requester = Protocol.get_ok (Protocol.enroll_r sys) in
      let honest = Protocol.get_ok (Protocol.enroll_r sys) in
      let task =
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ())
      in
      let honest_wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
      let thief_wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
      let honest_tx =
        worker_tx sys ~task:task.Requester.contract ~wallet:honest_wallet ~identity:honest
          ~answer:1
      in
      Printf.printf "thief re-sends the honest payload from his own address, mined FIRST:\n";
      submit_and_mine sys (Tx.resend_as ~wallet:thief_wallet ~nonce:0 honest_tx);
      Printf.printf "honest original still goes through:\n";
      submit_and_mine sys honest_tx;
      Printf.printf "  the attestation binds alpha_i || C_i; a copied payload fails for the thief.\n%!");

  scenario "false-reporter: requester claims nobody answered correctly" (fun sys ->
      let requester = Protocol.get_ok (Protocol.enroll_r sys) in
      let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
      let task =
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:100 ~answer_window:10
            ~instruct_window:10 ())
      in
      let wallets =
        Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
            ~workers:[ (w1, 1); (w2, 1) ])
      in
      let storage = Protocol.task_storage sys task.Requester.contract in
      Printf.printf "requester instructs rewards [0; 0] with an honest proof attempt:\n";
      let _, lying =
        Requester.instruct_with_rewards ~random_bytes:rb task ~storage
          ~nonce:(Network.nonce sys.Protocol.net (Wallet.address task.Requester.wallet))
          ~rewards:[| 0; 0 |]
      in
      submit_and_mine sys lying;
      Printf.printf "deadline passes; anyone finalises; budget split evenly:\n";
      Protocol.get_ok (Protocol.finalize_r sys task);
      List.iter
        (fun w ->
          Printf.printf "  worker balance: %d\n" (Network.balance sys.Protocol.net (Wallet.address w)))
        wallets;
      Printf.printf "  lying about rewards only cost the requester her whole budget.\n%!");

  scenario "requester submits to her own task to downgrade workers" (fun sys ->
      let requester = Protocol.get_ok (Protocol.enroll_r sys) in
      let task =
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ())
      in
      Printf.printf "requester submits an answer using her own credential:\n";
      submit_and_mine sys
        (worker_tx sys ~task:task.Requester.contract
           ~wallet:(Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10))
           ~identity:requester ~answer:0);
      Printf.printf "  pi_R shares the task prefix: her submission links to the publication.\n%!");

  scenario "sybil: an unregistered key forges a certificate" (fun sys ->
      let requester = Protocol.get_ok (Protocol.enroll_r sys) in
      let task =
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ())
      in
      let mallory = { Protocol.key = Cpla.keygen_rng ~rng:sys.Protocol.rng (); cert_index = 0 } in
      Printf.printf "mallory authenticates with a stolen leaf index:\n";
      submit_and_mine sys
        (worker_tx sys ~task:task.Requester.contract
           ~wallet:(Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10))
           ~identity:mallory ~answer:1);
      Printf.printf "  her pk is not under the RA root: the SNARK cannot be satisfied.\n%!");

  scenario "sybil requester: publish a task without an RA certificate" (fun sys ->
      (* The driver-level view of the same class of attack: the typed result
         API pins the rejection to the deployment step, no exception games. *)
      let mallory = { Protocol.key = Cpla.keygen_rng ~rng:sys.Protocol.rng (); cert_index = 0 } in
      match
        Protocol.publish_task_r sys ~requester:mallory
          ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:60 ()
      with
      | Ok _ -> Printf.printf "  -> ACCEPTED (attack succeeded?!)\n%!"
      | Error (Protocol.Rejected { phase = "task_publish"; reason; _ }) ->
        Printf.printf "  -> REJECTED at deployment: %s\n%!" reason
      | Error e -> Printf.printf "  -> unexpected error: %s\n%!" (Protocol.error_to_string e));

  scenario "flooding: more submissions than the task pays for" (fun sys ->
      let requester = Protocol.get_ok (Protocol.enroll_r sys) in
      let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
      let task =
        Protocol.get_ok (Protocol.publish_task_r sys ~requester
            ~policy:(Policy.Majority { choices = 4 }) ~n:1 ~budget:30 ())
      in
      Printf.printf "two workers race into a 1-answer task:\n";
      match
        Protocol.submit_answers_r sys ~task:task.Requester.contract
          ~workers:[ (w1, 1); (w2, 2) ]
      with
      | Ok _ -> Printf.printf "  -> both ACCEPTED (attack succeeded?!)\n%!"
      | Error (Protocol.Rejected { phase = "answer_collection"; index; reason }) ->
        Printf.printf "  -> submission #%d REJECTED: %s\n" index reason;
        Printf.printf "  the contract enforces n; the loser only lost a transaction fee.\n%!"
      | Error e -> Printf.printf "  -> unexpected error: %s\n%!" (Protocol.error_to_string e));

  Printf.printf "\nall attacks defeated.\n%!"
