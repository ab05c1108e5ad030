module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module Snark = Zebra_snark.Snark

let default_seed = "deployed-txs/lint-scenario-v1"

type t = {
  sys : Protocol.system;
  requester : Protocol.identity;
  w1 : Protocol.identity;
  w2 : Protocol.identity;
  task_a : Requester.task;
  task_b : Requester.task;
  board : Address.t;
  rep : Reputation.params;
}

(* The canonical end-to-end marketplace scenario: two tasks settled by
   both branches (Instruct and the Finalize fallback), plus a full
   reputation-board lifecycle (deploy, credit, link-proof claim, epoch
   advance).  Every transaction kind the protocol can deploy appears at
   least once, which is exactly what the secret-flow lint, the indexer
   tests and the byzantine corpus all need — they share this builder rather than
   cloning it. *)
let build ?(seed = default_seed) () =
  let sys = Protocol.create_system ~seed () in
  Reputation_contract.register ();
  let rb = Protocol.random_bytes sys in
  let requester = Protocol.get_ok (Protocol.enroll_r sys) in
  let w1 = Protocol.get_ok (Protocol.enroll_r sys) in
  let w2 = Protocol.get_ok (Protocol.enroll_r sys) in
  let policy = Policy.Majority { choices = 4 } in
  (* Task A settles by Instruct.  budget = 61 with n = 2 makes rho = 30:
     both workers get a nonzero reward and 1 unit refunds to the
     requester, so every settlement branch (worker payment, refund) is an
     actually-covered path for the minimality check. *)
  let task_a = Protocol.get_ok (Protocol.publish_task_r sys ~requester ~policy ~n:2 ~budget:61 ()) in
  let _ =
    Protocol.get_ok (Protocol.submit_answers_r sys ~task:task_a.Requester.contract
        ~workers:[ (w1, 1); (w2, 1) ])
  in
  let _ = Protocol.get_ok (Protocol.reward_r sys task_a) in
  (* Task B settles by the third-party Finalize fallback: 2 of 3 slots
     submitted, budget 61 -> share 30 each, refund 1 to the requester. *)
  let task_b = Protocol.get_ok (Protocol.publish_task_r sys ~requester ~policy ~n:3 ~budget:61 ()) in
  let _ =
    Protocol.get_ok (Protocol.submit_answers_r sys ~task:task_b.Requester.contract
        ~workers:[ (w1, 2); (w2, 2) ])
  in
  Protocol.get_ok (Protocol.finalize_r sys task_b);
  (* Reputation: board deploy, credit of task A's first tag, the worker's
     link-proof claim onto an epoch pseudonym, and an epoch advance. *)
  let rep = Reputation.setup_cached sys.Protocol.keycache ~seed in
  let op = Protocol.get_ok (Protocol.fresh_funded_wallet_r sys ~amount:100) in
  (* The operator's transactions, each confirmed through Protocol's one
     settle rule. *)
  let confirm ~name dst payload =
    let tx =
      Tx.make ~wallet:op ~nonce:(Network.nonce sys.Protocol.net (Wallet.address op)) ~dst
        ~value:0 ~payload
    in
    Protocol.get_ok (Protocol.await sys (Protocol.single sys ~name tx ()))
  in
  confirm ~name:"reputation board deployment"
    (Tx.Create
       {
         behavior = Reputation_contract.behavior_name;
         args = Reputation_contract.init_args ~link_vk:(Reputation.vk_bytes rep);
       })
    Bytes.empty;
  let board = Address.of_creator (Wallet.address op) 0 in
  let call msg =
    confirm ~name:"reputation call" (Tx.Call board) (Reputation_contract.message_to_bytes msg)
  in
  let storage_a = Protocol.task_storage sys task_a.Requester.contract in
  let s1 = List.hd storage_a.Task_contract.submissions in
  let prefix = Address.to_field task_a.Requester.contract in
  call
    (Reputation_contract.Credit { task_tag = s1.Task_contract.tag; task_prefix = prefix; score = 3 });
  let key = w1.Protocol.key in
  let pseudonym = Reputation.epoch_pseudonym key ~epoch:0 in
  let proof = Reputation.prove_link ~random_bytes:rb rep ~key ~task_prefix:prefix ~epoch:0 in
  call
    (Reputation_contract.Claim
       { task_tag = s1.Task_contract.tag; pseudonym; proof = Snark.proof_to_bytes proof });
  call Reputation_contract.Advance_epoch;
  { sys; requester; w1; w2; task_a; task_b; board; rep }
