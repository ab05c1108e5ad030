(* End-to-end protocol tests on the simulated blockchain: the happy path of
   Register / TaskPublish / AnswerCollection / Reward, the timeout fallback,
   and every attack scenario from the paper's security analysis. *)

open Zebra_field
open Zebra_chain
open Zebralancer
module Cpla = Zebra_anonauth.Cpla
module Ra = Zebra_anonauth.Ra
module Elgamal = Zebra_elgamal.Elgamal
module Codec = Zebra_codec.Codec

(* One shared system: CPLA setup is the expensive part.  Tests create
   independent tasks on the same chain, which also exercises coexistence. *)
let sys = lazy (Protocol.create_system ~tree_depth:6 ~seed:"test_protocol" ())

let rb sys n = Protocol.random_bytes sys n

let check_paid ~msg net wallet expected =
  Alcotest.(check int) msg expected (Network.balance net (Wallet.address wallet))

(* --- happy path --- *)

let test_end_to_end_majority () =
  let sys = Lazy.force sys in
  let policy = Policy.Majority { choices = 4 } in
  let task, wallets, rewards = Protocol.run_task sys ~policy ~budget:90 ~answers:[ 1; 1; 2 ] in
  Alcotest.(check (array int)) "rewards" [| 30; 30; 0 |] rewards;
  (* workers answer from unfunded wallets, so each holds its reward *)
  List.iteri
    (fun i w -> check_paid ~msg:(Printf.sprintf "worker %d paid" i) sys.Protocol.net w rewards.(i))
    wallets;
  (* contract drained; requester refunded the incorrect worker's share *)
  Alcotest.(check int) "contract drained" 0
    (Network.balance sys.Protocol.net task.Requester.contract);
  check_paid ~msg:"requester refund" sys.Protocol.net task.Requester.wallet 31;
  let storage = Protocol.task_storage sys task.Requester.contract in
  Alcotest.(check bool) "finished" true (storage.Task_contract.phase = Task_contract.Finished)

let test_end_to_end_auction () =
  let sys = Lazy.force sys in
  let policy = Policy.Reverse_auction { winners = 2; max_bid = 10 } in
  let _, _, rewards = Protocol.run_task sys ~policy ~budget:100 ~answers:[ 5; 3; 8; 1 ] in
  Alcotest.(check (array int)) "auction rewards" [| 0; 5; 0; 5 |] rewards

let test_partial_submissions_reward () =
  (* Task wants 3 answers, only 2 arrive before the deadline; the requester
     instructs over the partial set (missing slot = bottom). *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ~answer_window:5
        ~instruct_window:40 ())
  in
  let _ = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (w1, 2); (w2, 2) ]) in
  (* pass the answer deadline without a third answer *)
  Network.mine_until sys.Protocol.net
    ~height:(task.Requester.params.Task_contract.answer_deadline + 1);
  let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
  Alcotest.(check (array int)) "partial rewards" [| 30; 30; 0 |] rewards

let test_fallback_even_split () =
  (* Requester vanishes after collection: after T_I anyone finalises and
     the budget is split evenly (Algorithm 1 lines 18-20). *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:100 ~answer_window:10
        ~instruct_window:10 ())
  in
  let wallets = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (w1, 0); (w2, 1) ]) in
  Protocol.get_ok (Protocol.finalize_r sys task);
  List.iter (fun w -> check_paid ~msg:"even split" sys.Protocol.net w 50) wallets;
  Alcotest.(check int) "contract drained" 0
    (Network.balance sys.Protocol.net task.Requester.contract)

(* AnswerCollection funds nobody: two workers' answers take one block and
   no faucet transfer, and each worker's wallet then holds its reward. *)
let test_answers_from_unfunded_wallets () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:60 ())
  in
  let net = sys.Protocol.net and faucet = Wallet.address sys.Protocol.faucet in
  let height = Network.height net and faucet_nonce = Network.nonce net faucet in
  let wallets = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (w1, 1); (w2, 1) ]) in
  Alcotest.(check int) "one block mined" (height + 1) (Network.height net);
  Alcotest.(check int) "faucet nonce unchanged" faucet_nonce (Network.nonce net faucet);
  let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
  Alcotest.(check (array int)) "rewards" [| 30; 30 |] rewards;
  List.iteri
    (fun i w -> check_paid ~msg:(Printf.sprintf "worker %d holds its reward" i) net w rewards.(i))
    wallets

let test_fallback_no_submissions_refund () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:100 ~answer_window:3
        ~instruct_window:3 ())
  in
  Protocol.get_ok (Protocol.finalize_r sys task);
  check_paid ~msg:"full refund" sys.Protocol.net task.Requester.wallet 101

(* --- attacks: malicious workers --- *)

let submit_raw sys ~task ~wallet ~identity ~answer =
  let storage = Protocol.task_storage sys task in
  let tx =
    Worker.submit_tx ~random_bytes:(rb sys) ~cpla:sys.Protocol.cpla ~storage ~contract:task
      ~wallet ~key:identity.Protocol.key ~cert_index:identity.Protocol.cert_index
      ~ra_path:(Ra.path sys.Protocol.ra identity.Protocol.cert_index)
      ~answer ~nonce:(Network.nonce sys.Protocol.net (Wallet.address wallet))
  in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some r -> r
  | None -> Alcotest.fail "submission not mined"

let test_double_submission_linked () =
  (* The same identity submits twice from two fresh addresses: the second
     is linked via t1 and dropped. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let cheater = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ())
  in
  let w1 = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let w2 = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  (match submit_raw sys ~task:task.Requester.contract ~wallet:w1 ~identity:cheater ~answer:1 with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "first submission should pass");
  (match submit_raw sys ~task:task.Requester.contract ~wallet:w2 ~identity:cheater ~answer:2 with
  | { State.status = State.Failed msg; _ } ->
    Alcotest.(check string) "linked" "linked: double submission" msg
  | _ -> Alcotest.fail "double submission accepted!")

let test_same_identity_two_tasks_unlinkable () =
  (* The same identity joins two different tasks: accepted in both, and the
     stored tags differ (cross-task unlinkability). *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let honest = Protocol.get_ok (Protocol.enroll_r sys) in
  let mk_task () =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ())
  in
  let t1 = mk_task () and t2 = mk_task () in
  let w1 = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let w2 = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  (match submit_raw sys ~task:t1.Requester.contract ~wallet:w1 ~identity:honest ~answer:1 with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "task-1 submission failed");
  (match submit_raw sys ~task:t2.Requester.contract ~wallet:w2 ~identity:honest ~answer:1 with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "task-2 submission failed");
  let tag_of task =
    match (Protocol.task_storage sys task.Requester.contract).Task_contract.submissions with
    | [ s ] -> s.Task_contract.tag
    | _ -> Alcotest.fail "expected one submission"
  in
  Alcotest.(check bool) "tags unlinkable across tasks" false (Fp.equal (tag_of t1) (tag_of t2))

let test_free_riding_copy_rejected () =
  (* Free-riding (footnote 9): copy a broadcast-but-unmined ciphertext and
     attestation, re-send from another address.  The contract recomputes the
     authenticated digest from the actual sender, so it fails. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let honest = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ())
  in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let honest_wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let thief_wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let honest_tx =
    Protocol.answer_tx sys ~storage ~task:task.Requester.contract ~wallet:honest_wallet honest
      ~answer:1
  in
  (* The thief sees honest_tx in the mempool and replays its payload. *)
  let thief_tx = Tx.resend_as ~wallet:thief_wallet ~nonce:0 honest_tx in
  Network.submit sys.Protocol.net thief_tx;
  Network.submit sys.Protocol.net honest_tx;
  (* Adversarial ordering: the thief's copy is mined FIRST. *)
  Network.set_adversary sys.Protocol.net
    (Some
       (fun txs ->
         List.sort
           (fun a b ->
             compare (Address.equal a.Tx.sender (Wallet.address honest_wallet))
               (Address.equal b.Tx.sender (Wallet.address honest_wallet)))
           txs));
  ignore (Network.mine sys.Protocol.net);
  Network.set_adversary sys.Protocol.net None;
  (match Network.receipt sys.Protocol.net (Tx.hash thief_tx) with
  | Some { State.status = State.Failed "invalid attestation"; _ } -> ()
  | Some { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "free-riding copy was accepted!");
  (match Network.receipt sys.Protocol.net (Tx.hash honest_tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "honest submission rejected");
  (* The audit re-checks both mined copies, the reverted one included,
     and names the thief's, which the adversary mined first. *)
  let report = Protocol.audit_task_report sys ~task:task.Requester.contract in
  Alcotest.(check int) "both mined submissions checked" 2 report.Protocol.checked;
  Alcotest.(check (list int)) "the copy is the offender" [ 0 ] report.Protocol.offenders

let test_unregistered_worker_rejected () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ())
  in
  (* Mallory never registered: she forges a certificate for leaf 0. *)
  let mallory = { Protocol.key = Cpla.keygen_rng ~rng:sys.Protocol.rng (); cert_index = 0 } in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  match submit_raw sys ~task:task.Requester.contract ~wallet ~identity:mallory ~answer:1 with
  | { State.status = State.Failed "invalid attestation"; _ } -> ()
  | { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "unregistered worker accepted!"

let test_submission_after_quota_rejected () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:1 ~budget:90 ())
  in
  let _ = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (w1, 1) ]) in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  match submit_raw sys ~task:task.Requester.contract ~wallet ~identity:w2 ~answer:1 with
  | { State.status = State.Failed "enough answers collected"; _ } -> ()
  | { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "over-quota submission accepted"

(* --- attacks: malicious requester --- *)

let test_requester_self_submission_linked () =
  (* The requester tries to submit an answer to her own task to downgrade
     workers: her t1 equals the stored requester tag -> linked. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ())
  in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  match submit_raw sys ~task:task.Requester.contract ~wallet ~identity:requester ~answer:0 with
  | { State.status = State.Failed "linked: requester self-submission"; _ } -> ()
  | { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "requester self-submission accepted!"

let test_false_instruction_dropped_then_fallback () =
  (* False-reporting: the requester sends a lying reward vector.  The proof
     cannot verify, the contract drops it, and after T_I the fallback pays
     workers evenly — the requester gains nothing by cheating. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w1 = Protocol.get_ok (Protocol.enroll_r sys) and w2 = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:100 ~answer_window:10
        ~instruct_window:10 ())
  in
  let wallets = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (w1, 1); (w2, 1) ]) in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let _, lying_tx =
    Requester.instruct_with_rewards ~random_bytes:(rb sys) task ~storage
      ~nonce:(Network.nonce sys.Protocol.net (Wallet.address task.Requester.wallet))
      ~rewards:[| 0; 0 |]
  in
  Network.submit sys.Protocol.net lying_tx;
  ignore (Network.mine sys.Protocol.net);
  (match Network.receipt sys.Protocol.net (Tx.hash lying_tx) with
  | Some { State.status = State.Failed "invalid reward proof"; _ } -> ()
  | Some { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "lying instruction accepted!");
  Protocol.get_ok (Protocol.finalize_r sys task);
  List.iter (fun w -> check_paid ~msg:"fallback pay" sys.Protocol.net w 50) wallets

let test_budget_not_deposited () =
  (* Deploying with value < budget must abort creation (line 3). *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:50) in
  let height = Network.height sys.Protocol.net in
  let policy = Policy.Majority { choices = 4 } in
  let _task, tx =
    Requester.create_task ~circuit:(Protocol.reward_circuit sys ~policy ~n:2)
      ~random_bytes:(rb sys) ~cpla:sys.Protocol.cpla
      ~key:requester.Protocol.key ~cert_index:requester.Protocol.cert_index
      ~ra_path:(Ra.path sys.Protocol.ra requester.Protocol.cert_index)
      ~ra_root:(Ra.root sys.Protocol.ra) ~wallet ~nonce:0 ~policy
      ~n:2 ~budget:1000 ~answer_deadline:(height + 10) ~instruct_deadline:(height + 20) ()
  in
  (* budget 1000 > wallet balance: the deploy carries value 1000 and fails
     upstream on funds; try value 0 via a hand-made tx instead *)
  ignore tx;
  let params =
    Task_contract.params_of_bytes
      (Task_contract.params_to_bytes
         {
           Task_contract.budget = 1000;
           n = 2;
           answer_deadline = height + 10;
           instruct_deadline = height + 20;
           epk = Fp.one;
           ra_root = Ra.root sys.Protocol.ra;
           auth_vk = Cpla.vk_to_bytes sys.Protocol.cpla;
           reward_vk = Bytes.empty;
           policy;
           requester_attestation = Bytes.empty;
           max_per_worker = 1;
           ra_rsa_pub = Bytes.empty;
           data_digest = Bytes.empty;
         })
  in
  let tx =
    Tx.make ~wallet ~nonce:0
      ~dst:
        (Tx.Create
           { behavior = Task_contract.behavior_name; args = Task_contract.params_to_bytes params })
      ~value:10 ~payload:Bytes.empty
  in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Failed "budget not deposited"; _ } -> ()
  | Some { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "under-funded task accepted"

let test_copied_task_attestation_rejected () =
  (* A malicious requester copies a legitimate task's attestation into her
     own contract (footnote 9, requester side): prefix alpha_C differs, so
     verification fails and the contract is not created. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let legit = Protocol.get_ok (Protocol.publish_task_r sys ~requester
      ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ()) in
  let thief_wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:200) in
  let stolen = legit.Requester.params in
  let tx =
    Tx.make ~wallet:thief_wallet ~nonce:0
      ~dst:
        (Tx.Create
           { behavior = Task_contract.behavior_name; args = Task_contract.params_to_bytes stolen })
      ~value:stolen.Task_contract.budget ~payload:Bytes.empty
  in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Failed "requester not identified"; _ } -> ()
  | Some { State.status = State.Failed m; _ } -> Alcotest.failf "unexpected: %s" m
  | _ -> Alcotest.fail "stolen attestation accepted"

(* --- extensions: k submissions per worker, non-anonymous mode --- *)

let test_k_submissions_per_worker () =
  (* Footnote 11: the contract can allow k answers per identity by counting
     linked submissions instead of rejecting the first link. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let prolific = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90 ~max_per_worker:2 ())
  in
  let submit answer =
    submit_raw sys ~task:task.Requester.contract
      ~wallet:(Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10))
      ~identity:prolific ~answer
  in
  (match submit 1 with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "first submission rejected");
  (match submit 2 with
  | { State.status = State.Ok _; _ } -> ()
  | { State.status = State.Failed m; _ } -> Alcotest.failf "second rejected: %s" m);
  match submit 3 with
  | { State.status = State.Failed "linked: double submission"; _ } -> ()
  | _ -> Alcotest.fail "third submission over k=2 accepted!"

let test_plain_mode_end_to_end () =
  (* Section VI non-anonymous mode: a worker who waives anonymity submits
     with a classical certificate + signature, mixed with anonymous ones. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let anon = Protocol.get_ok (Protocol.enroll_r sys) in
  let priv, cert = Protocol.enroll_plain sys in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:60
        ~ra_rsa_pub:(Protocol.ra_rsa_pub_bytes sys) ())
  in
  let _ = Protocol.get_ok (Protocol.submit_answers_r sys ~task:task.Requester.contract
      ~workers:[ (anon, 1) ]) in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let tx =
    Worker.submit_plain_tx ~random_bytes:(rb sys) ~storage ~contract:task.Requester.contract
      ~wallet ~priv ~cert ~answer:1 ~nonce:0
  in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  (match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | Some { State.status = State.Failed m; _ } -> Alcotest.failf "plain rejected: %s" m
  | None -> Alcotest.fail "not mined");
  let report = Protocol.audit_task_report sys ~task:task.Requester.contract in
  Alcotest.(check int) "audit checks both modes" 2 report.Protocol.checked;
  Alcotest.(check (list int)) "both re-verify" [] report.Protocol.offenders;
  let rewards = Protocol.get_ok (Protocol.reward_r sys task) in
  Alcotest.(check (array int)) "both modes rewarded" [| 30; 30 |] rewards;
  Alcotest.(check int) "plain worker paid" 40
    (Network.balance sys.Protocol.net (Wallet.address wallet))

let test_plain_mode_double_submission_linked () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let priv, cert = Protocol.enroll_plain sys in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:3 ~budget:90
        ~ra_rsa_pub:(Protocol.ra_rsa_pub_bytes sys) ())
  in
  let submit () =
    let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
    let storage = Protocol.task_storage sys task.Requester.contract in
    let tx =
      Worker.submit_plain_tx ~random_bytes:(rb sys) ~storage
        ~contract:task.Requester.contract ~wallet ~priv ~cert ~answer:1 ~nonce:0
    in
    Network.submit sys.Protocol.net tx;
    ignore (Network.mine sys.Protocol.net);
    Option.get (Network.receipt sys.Protocol.net (Tx.hash tx))
  in
  (match submit () with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "first plain submission rejected");
  match submit () with
  | { State.status = State.Failed "linked: double submission"; _ } -> ()
  | _ -> Alcotest.fail "plain double submission accepted!"

let test_plain_mode_disabled_by_default () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let priv, cert = Protocol.enroll_plain sys in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:60 ())
  in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let tx =
    Worker.submit_plain_tx ~random_bytes:(rb sys) ~storage ~contract:task.Requester.contract
      ~wallet ~priv ~cert ~answer:1 ~nonce:0
  in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Failed "plain submissions disabled for this task"; _ } -> ()
  | _ -> Alcotest.fail "plain submission accepted on anonymous-only task"

let test_plain_mode_forged_cert_rejected () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:60
        ~ra_rsa_pub:(Protocol.ra_rsa_pub_bytes sys) ())
  in
  (* self-signed certificate: not issued by the RA *)
  let priv = Zebra_rsa.Rsa.generate ~bits:512 ~random_bytes:(rb sys) in
  let cert = Zebralancer.Plain_auth.issue ~ra_priv:priv priv.Zebra_rsa.Rsa.pub in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let tx =
    Worker.submit_plain_tx ~random_bytes:(rb sys) ~storage ~contract:task.Requester.contract
      ~wallet ~priv ~cert ~answer:1 ~nonce:0
  in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  (match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Failed "invalid attestation"; _ } -> ()
  | _ -> Alcotest.fail "forged plain certificate accepted");
  let report = Protocol.audit_task_report sys ~task:task.Requester.contract in
  Alcotest.(check (list int)) "the audit names it" [ 0 ] report.Protocol.offenders

let test_worker_rejects_invalid_answer_client_side () =
  (* The client refuses to encrypt an out-of-space answer before anything
     touches the chain. *)
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:1 ~budget:30 ())
  in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let wallet = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:10) in
  Alcotest.check_raises "client-side range check"
    (Invalid_argument "Worker.submit_tx: answer outside the task's answer space") (fun () ->
      ignore
        (Worker.submit_tx ~random_bytes:(rb sys) ~cpla:sys.Protocol.cpla ~storage
           ~contract:task.Requester.contract ~wallet ~key:w.Protocol.key
           ~cert_index:w.Protocol.cert_index
           ~ra_path:(Ra.path sys.Protocol.ra w.Protocol.cert_index)
           ~answer:7 ~nonce:0))

(* --- worker due diligence --- *)

let test_worker_validates_task () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok (Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 }) ~n:2 ~budget:90 ())
  in
  let storage = Protocol.task_storage sys task.Requester.contract in
  let balance = Network.balance sys.Protocol.net task.Requester.contract in
  Alcotest.(check bool) "valid task accepted" true
    (Worker.validate_task ~storage ~contract:task.Requester.contract ~balance
       ~height:(Network.height sys.Protocol.net)
       ~expected_root:storage.Task_contract.params.Task_contract.ra_root
    = Ok ());
  Alcotest.(check bool) "wrong root declined" true
    (Worker.validate_task ~storage ~contract:task.Requester.contract ~balance
       ~height:(Network.height sys.Protocol.net) ~expected_root:Fp.one
    <> Ok ());
  Alcotest.(check bool) "late joiner declined" true
    (Worker.validate_task ~storage ~contract:task.Requester.contract ~balance
       ~height:(storage.Task_contract.params.Task_contract.answer_deadline + 1)
       ~expected_root:storage.Task_contract.params.Task_contract.ra_root
    <> Ok ())

(* --- audit --- *)

let test_audit_task_report () =
  let sys = Lazy.force sys in
  let policy = Policy.Majority { choices = 4 } in
  let task, _wallets, _rewards = Protocol.run_task sys ~policy ~budget:90 ~answers:[ 1; 2; 1 ] in
  let report = Protocol.audit_task_report sys ~task:task.Requester.contract in
  Alcotest.(check bool) "all attestations re-verify" true report.Protocol.all_valid;
  Alcotest.(check int) "one per submission" 3 report.Protocol.checked;
  Alcotest.(check (list int)) "no offenders" [] report.Protocol.offenders

(* A worker mines a submission whose attestation carries t1 = 32 bytes of
   0xff, which is no field element.  The contract reverts it, and the
   audit then names it an offender instead of raising. *)
let test_audit_malformed_attestation () =
  let sys = Lazy.force sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let worker = Protocol.get_ok (Protocol.enroll_r sys) in
  let task =
    Protocol.get_ok
      (Protocol.publish_task_r sys ~requester ~policy:(Policy.Majority { choices = 4 }) ~n:2
         ~budget:60 ())
  in
  let contract = task.Requester.contract in
  ignore (Protocol.get_ok (Protocol.submit_answers_r sys ~task:contract ~workers:[ (worker, 1) ]));
  let wallet = Protocol.fresh_wallet sys in
  let storage = Protocol.task_storage sys contract in
  let valid = Protocol.answer_tx sys ~storage ~task:contract ~wallet worker ~answer:1 in
  let payload =
    match Task_contract.message_of_bytes valid.Tx.payload with
    | Task_contract.Submit { ciphertext; attestation } ->
      let t2, proof =
        Codec.decode
          (fun r ->
            ignore (Codec.read_bytes r);
            let t2 = Codec.read_bytes r in
            (t2, Codec.read_bytes r))
          attestation
      in
      let attestation =
        Codec.encode
          (fun w () -> List.iter (Codec.bytes w) [ Bytes.make 32 '\xff'; t2; proof ])
          ()
      in
      Task_contract.message_to_bytes (Task_contract.Submit { ciphertext; attestation })
    | _ -> Alcotest.fail "answer_tx builds a Submit"
  in
  let tx = Tx.make ~wallet ~nonce:0 ~dst:(Tx.Call contract) ~value:0 ~payload in
  Network.submit sys.Protocol.net tx;
  ignore (Network.mine sys.Protocol.net);
  (match Network.receipt sys.Protocol.net (Tx.hash tx) with
  | Some { State.status = State.Failed reason; _ } ->
    Alcotest.(check string) "reverted as malformed" "malformed attestation"
      (String.sub reason 0 (min (String.length reason) 21))
  | _ -> Alcotest.fail "a malformed attestation must revert");
  let report = Protocol.audit_task_report sys ~task:contract in
  Alcotest.(check int) "both submissions checked" 2 report.Protocol.checked;
  Alcotest.(check (list int)) "the malformed one is the offender" [ 1 ] report.Protocol.offenders

(* --- system setup --- *)

(* One trusted setup per (policy, n): the second request is a memo hit,
   and both return the keys of a fresh setup seeded from the system seed. *)
let test_reward_circuit_memo () =
  let module Obs = Zebra_obs.Obs in
  let module Snark = Zebra_snark.Snark in
  let sys = Lazy.force sys in
  let policy = Policy.Majority { choices = 3 } and n = 2 in
  let expected =
    let rng = Zebra_rng.Source.of_seed (sys.Protocol.setup_seed ^ "/reward-circuit") in
    let cs = Zebra_r1cs.Cs.create () in
    Reward_circuit.synthesize_dummy ~policy ~n cs;
    Snark.vk_to_bytes (Snark.setup_rng ~rng cs).Snark.vk
  in
  let hits = Obs.Counter.make "snark.cache.hits" in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let first = Protocol.reward_circuit sys ~policy ~n in
  let hits0 = Obs.Counter.value hits in
  let second = Protocol.reward_circuit sys ~policy ~n in
  let hits1 = Obs.Counter.value hits in
  Obs.set_enabled was_enabled;
  Alcotest.(check int) "second call is a hit" 1 (hits1 - hits0);
  Alcotest.(check bool) "first call: fresh-setup vk" true (Reward_circuit.vk_bytes first = expected);
  Alcotest.(check bool) "second call: fresh-setup vk" true (Reward_circuit.vk_bytes second = expected)

let () =
  Alcotest.run "protocol"
    [
      ( "happy-path",
        [
          Alcotest.test_case "majority end-to-end" `Quick test_end_to_end_majority;
          Alcotest.test_case "auction end-to-end" `Quick test_end_to_end_auction;
          Alcotest.test_case "partial submissions" `Quick test_partial_submissions_reward;
          Alcotest.test_case "fallback even split" `Quick test_fallback_even_split;
          Alcotest.test_case "answers from unfunded wallets" `Quick
            test_answers_from_unfunded_wallets;
          Alcotest.test_case "fallback full refund" `Quick test_fallback_no_submissions_refund;
        ] );
      ( "malicious-workers",
        [
          Alcotest.test_case "double submission linked" `Quick test_double_submission_linked;
          Alcotest.test_case "cross-task unlinkability" `Quick test_same_identity_two_tasks_unlinkable;
          Alcotest.test_case "free-riding copy" `Quick test_free_riding_copy_rejected;
          Alcotest.test_case "unregistered worker" `Quick test_unregistered_worker_rejected;
          Alcotest.test_case "over quota" `Quick test_submission_after_quota_rejected;
        ] );
      ( "malicious-requester",
        [
          Alcotest.test_case "self-submission linked" `Quick test_requester_self_submission_linked;
          Alcotest.test_case "false instruction + fallback" `Quick test_false_instruction_dropped_then_fallback;
          Alcotest.test_case "budget not deposited" `Quick test_budget_not_deposited;
          Alcotest.test_case "copied attestation" `Quick test_copied_task_attestation_rejected;
        ] );
      ( "worker-client",
        [
          Alcotest.test_case "task validation" `Quick test_worker_validates_task;
          Alcotest.test_case "client-side answer check" `Quick test_worker_rejects_invalid_answer_client_side;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "k submissions per worker" `Quick test_k_submissions_per_worker;
          Alcotest.test_case "plain mode end-to-end" `Quick test_plain_mode_end_to_end;
          Alcotest.test_case "plain double submission" `Quick test_plain_mode_double_submission_linked;
          Alcotest.test_case "plain disabled by default" `Quick test_plain_mode_disabled_by_default;
          Alcotest.test_case "forged plain certificate" `Quick test_plain_mode_forged_cert_rejected;
          Alcotest.test_case "batch audit of mined submissions" `Quick test_audit_task_report;
          Alcotest.test_case "audit names a malformed attestation" `Quick
            test_audit_malformed_attestation;
        ] );
      ( "system",
        [
          Alcotest.test_case "reward circuit memo" `Quick test_reward_circuit_memo;
        ] );
    ]
