module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module Elgamal = Zebra_elgamal.Elgamal
module Cpla = Zebra_anonauth.Cpla
module Secret = Zebra_secret.Secret

type task = {
  wallet : Wallet.t;
  contract : Address.t;
  esk : Elgamal.secret_key Secret.t;
  circuit : Reward_circuit.t;
  params : Task_contract.params;
}

let esk_canary task = Secret.use task.esk Elgamal.secret_canary

let create_task ~circuit ?(max_per_worker = 1) ?(ra_rsa_pub = Bytes.empty)
    ?(data_digest = Bytes.empty) ?(fee = 0) ~random_bytes ~cpla ~key ~cert_index ~ra_path
    ~ra_root ~wallet ~nonce ~policy ~n ~budget ~answer_deadline ~instruct_deadline () =
  if not (Policy.equal (Reward_circuit.policy circuit) policy) || Reward_circuit.n circuit <> n
  then invalid_arg "Requester.create_task: circuit does not match policy/arity";
  let esk, epk = Elgamal.generate ~random_bytes in
  let esk = Secret.make ~label:"requester.task.esk" esk in
  (* Footnote 10: alpha_C is predictable before deployment, so pi_R can be
     computed off-line and shipped inside the contract parameters. *)
  let contract = Address.of_creator (Wallet.address wallet) nonce in
  let attestation =
    Cpla.auth_rng ~rng:(Zebra_rng.Source.of_fn random_bytes) cpla
      ~prefix:(Address.to_field contract)
      ~message:(Address.to_field (Wallet.address wallet))
      ~key ~index:cert_index ~path:ra_path ~root:ra_root
  in
  let params =
    {
      Task_contract.budget;
      n;
      answer_deadline;
      instruct_deadline;
      epk;
      ra_root;
      auth_vk = Cpla.vk_to_bytes cpla;
      reward_vk = Reward_circuit.vk_bytes circuit;
      policy;
      requester_attestation = Cpla.attestation_to_bytes attestation;
      max_per_worker;
      ra_rsa_pub;
      data_digest;
    }
  in
  let tx =
    Tx.make_ext ~wallet ~fee ~footprint:[] ~nonce
      ~dst:
        (Tx.Create
           {
             behavior = Task_contract.behavior_name;
             args = Task_contract.params_to_bytes params;
           })
      ~value:budget ~payload:Bytes.empty
  in
  ({ wallet; contract; esk; circuit; params }, tx)

(* The off-chain retrieval step of the Reward phase: decrypt every
   submission, mapping undecodable plaintexts and missing slots to bottom. *)
let decrypt_answers task (storage : Task_contract.storage) =
  let n = task.params.Task_contract.n in
  let answers = Array.make n None in
  List.iteri
    (fun i (s : Task_contract.submission) ->
      if i < n then begin
        let m = Secret.use task.esk (fun esk -> Elgamal.decrypt esk s.Task_contract.ciphertext) in
        answers.(i) <-
          Elgamal.decode_answer ~max:(Policy.answer_space task.params.Task_contract.policy - 1) m
      end)
    storage.Task_contract.submissions;
  answers

let cts_of_storage task (storage : Task_contract.storage) =
  let n = task.params.Task_contract.n in
  let cts = Array.make n Elgamal.missing in
  List.iteri
    (fun i (s : Task_contract.submission) -> if i < n then cts.(i) <- s.Task_contract.ciphertext)
    storage.Task_contract.submissions;
  cts

let instruct_with_rewards ?(fee = 0) ~random_bytes task ~storage ~nonce ~rewards =
  let n = task.params.Task_contract.n in
  let budget = task.params.Task_contract.budget in
  let policy = task.params.Task_contract.policy in
  let cts = cts_of_storage task storage in
  let rho = Reward_circuit.rho_of ~policy ~budget ~n in
  let proof =
    Secret.use task.esk (fun esk ->
        Reward_circuit.prove ~random_bytes task.circuit ~esk ~rho ~cts ~rewards)
  in
  let msg =
    Task_contract.Instruct
      {
        rewards = Array.to_list rewards;
        proof = Zebra_snark.Snark.proof_to_bytes proof;
      }
  in
  let tx =
    Tx.make_ext ~wallet:task.wallet ~fee ~footprint:[] ~nonce ~dst:(Tx.Call task.contract)
      ~value:0 ~payload:(Task_contract.message_to_bytes msg)
  in
  (rewards, tx)

let instruct ?(fee = 0) ~random_bytes task ~storage ~nonce =
  let answers = decrypt_answers task storage in
  let rewards =
    Policy.rewards task.params.Task_contract.policy ~budget:task.params.Task_contract.budget
      ~n:task.params.Task_contract.n answers
  in
  instruct_with_rewards ~fee ~random_bytes task ~storage ~nonce ~rewards
