module Address = Zebra_chain.Address
module Wallet = Zebra_chain.Wallet
module Tx = Zebra_chain.Tx
module Elgamal = Zebra_elgamal.Elgamal
module Cpla = Zebra_anonauth.Cpla
module Codec = Zebra_codec.Codec

type validation_error =
  | Budget_not_deposited
  | Bad_requester_attestation
  | Deadline_passed
  | Task_closed
  | Invalid_parameters of string

let validation_error_to_string = function
  | Budget_not_deposited -> "budget not deposited"
  | Bad_requester_attestation -> "requester attestation invalid"
  | Deadline_passed -> "answer deadline passed"
  | Task_closed -> "task closed"
  | Invalid_parameters msg -> "invalid parameters: " ^ msg

let validate_task ~storage ~contract ~balance ~height ~expected_root =
  let p = storage.Task_contract.params in
  if p.Task_contract.n <= 0 || p.Task_contract.budget <= 0 then
    Error (Invalid_parameters "non-positive n or budget")
  else if not (Fp.equal p.Task_contract.ra_root expected_root) then
    Error (Invalid_parameters "unexpected RA root")
  else if balance < p.Task_contract.budget then Error Budget_not_deposited
  else if height > p.Task_contract.answer_deadline then Error Deadline_passed
  else if storage.Task_contract.phase <> Task_contract.Collecting then Error Task_closed
  else if List.length storage.Task_contract.submissions >= p.Task_contract.n then
    Error Task_closed
  else begin
    match Cpla.attestation_of_bytes p.Task_contract.requester_attestation with
    | exception Codec.Decode_error _ -> Error Bad_requester_attestation
    | att ->
      let ok =
        Cpla.verify_with_vk ~vk_bytes:p.Task_contract.auth_vk
          ~prefix:(Address.to_field contract)
          ~message:(Address.to_field storage.Task_contract.requester)
          ~root:p.Task_contract.ra_root att
      in
      if ok then Ok () else Error Bad_requester_attestation
  end

let submit_tx ~random_bytes ~cpla ~storage ~contract ~wallet ~key ~cert_index ~ra_path
    ~answer ~nonce =
  let p = storage.Task_contract.params in
  if not (Policy.valid_answer p.Task_contract.policy answer) then
    invalid_arg "Worker.submit_tx: answer outside the task's answer space";
  let ct =
    Elgamal.encrypt ~random_bytes p.Task_contract.epk (Elgamal.encode_answer answer)
  in
  let ct_bytes = Elgamal.ciphertext_to_bytes ct in
  let digest = Task_contract.submission_digest (Wallet.address wallet) ct_bytes in
  let attestation =
    Cpla.auth_rng ~rng:(Zebra_rng.Source.of_fn random_bytes) cpla
      ~prefix:(Address.to_field contract)
      ~message:digest ~key ~index:cert_index ~path:ra_path
      ~root:p.Task_contract.ra_root
  in
  let msg =
    Task_contract.Submit
      { ciphertext = ct_bytes; attestation = Cpla.attestation_to_bytes attestation }
  in
  Tx.make ~wallet ~nonce ~dst:(Tx.Call contract) ~value:0
    ~payload:(Task_contract.message_to_bytes msg)

let submit_plain_tx ~random_bytes ~storage ~contract ~wallet ~priv ~cert ~answer ~nonce =
  let p = storage.Task_contract.params in
  if not (Policy.valid_answer p.Task_contract.policy answer) then
    invalid_arg "Worker.submit_plain_tx: answer outside the task's answer space";
  let ct =
    Elgamal.encrypt ~random_bytes p.Task_contract.epk (Elgamal.encode_answer answer)
  in
  let ct_bytes = Elgamal.ciphertext_to_bytes ct in
  let digest = Task_contract.submission_digest (Wallet.address wallet) ct_bytes in
  let attestation =
    Plain_auth.auth ~priv ~cert ~prefix:(Address.to_field contract) ~message:digest
  in
  let msg =
    Task_contract.Submit_plain
      { ciphertext = ct_bytes; attestation = Plain_auth.attestation_to_bytes attestation }
  in
  Tx.make ~wallet ~nonce ~dst:(Tx.Call contract) ~value:0
    ~payload:(Task_contract.message_to_bytes msg)
