module Codec = Zebra_codec.Codec
module Contract = Zebra_chain.Contract
module Address = Zebra_chain.Address
module Elgamal = Zebra_elgamal.Elgamal
module Cpla = Zebra_anonauth.Cpla
module Sha256 = Zebra_hashing.Sha256

type phase =
  | Collecting
  | Finished

type submission = {
  worker : Address.t;
  ciphertext : Elgamal.ciphertext;
  tag : Fp.t;
}

type params = {
  budget : int;
  n : int;
  answer_deadline : int;
  instruct_deadline : int;
  epk : Elgamal.public_key;
  ra_root : Fp.t;
  auth_vk : bytes;
  reward_vk : bytes;
  policy : Policy.t;
  requester_attestation : bytes;
  max_per_worker : int;
  ra_rsa_pub : bytes;
  data_digest : bytes;
}

type storage = {
  params : params;
  requester : Address.t;
  phase : phase;
  submissions : submission list;
  requester_tag : Fp.t;
}

type message =
  | Submit of { ciphertext : bytes; attestation : bytes }
  | Submit_plain of { ciphertext : bytes; attestation : bytes }
  | Instruct of { rewards : int list; proof : bytes }
  | Finalize

let behavior_name = "zebralancer-task"

(* --- codecs --- *)

let write_params w p =
  Codec.u64 w p.budget;
  Codec.u32 w p.n;
  Codec.u64 w p.answer_deadline;
  Codec.u64 w p.instruct_deadline;
  Fp.write w p.epk;
  Fp.write w p.ra_root;
  Codec.bytes w p.auth_vk;
  Codec.bytes w p.reward_vk;
  Codec.bytes w (Policy.to_bytes p.policy);
  Codec.bytes w p.requester_attestation;
  Codec.u32 w p.max_per_worker;
  Codec.bytes w p.ra_rsa_pub;
  Codec.bytes w p.data_digest

let read_params r =
  let budget = Codec.read_u64 r in
  let n = Codec.read_u32 r in
  let answer_deadline = Codec.read_u64 r in
  let instruct_deadline = Codec.read_u64 r in
  let epk = Fp.read r in
  let ra_root = Fp.read r in
  let auth_vk = Codec.read_bytes r in
  let reward_vk = Codec.read_bytes r in
  let policy = Policy.of_bytes (Codec.read_bytes r) in
  let requester_attestation = Codec.read_bytes r in
  let max_per_worker = Codec.read_u32 r in
  let ra_rsa_pub = Codec.read_bytes r in
  let data_digest = Codec.read_bytes r in
  {
    budget;
    n;
    answer_deadline;
    instruct_deadline;
    epk;
    ra_root;
    auth_vk;
    reward_vk;
    policy;
    requester_attestation;
    max_per_worker;
    ra_rsa_pub;
    data_digest;
  }

let params_to_bytes = Codec.encode write_params
let params_of_bytes = Codec.decode read_params

let write_submission w s =
  Address.write w s.worker;
  Codec.bytes w (Elgamal.ciphertext_to_bytes s.ciphertext);
  Fp.write w s.tag

let read_submission r =
  let worker = Address.read r in
  let ciphertext = Elgamal.ciphertext_of_bytes (Codec.read_bytes r) in
  let tag = Fp.read r in
  { worker; ciphertext; tag }

let write_storage w st =
  write_params w st.params;
  Address.write w st.requester;
  Codec.u8 w (match st.phase with Collecting -> 0 | Finished -> 1);
  Codec.list w write_submission st.submissions;
  Fp.write w st.requester_tag

let read_storage r =
  let params = read_params r in
  let requester = Address.read r in
  let phase =
    match Codec.read_u8 r with
    | 0 -> Collecting
    | 1 -> Finished
    | _ -> raise (Codec.Decode_error "task: bad phase")
  in
  let submissions = Codec.read_list r read_submission in
  let requester_tag = Fp.read r in
  { params; requester; phase; submissions; requester_tag }

let storage_of_bytes = Codec.decode read_storage

let message_to_bytes m =
  Codec.encode
    (fun w m ->
      match m with
      | Submit { ciphertext; attestation } ->
        Codec.u8 w 0;
        Codec.bytes w ciphertext;
        Codec.bytes w attestation
      | Submit_plain { ciphertext; attestation } ->
        Codec.u8 w 3;
        Codec.bytes w ciphertext;
        Codec.bytes w attestation
      | Instruct { rewards; proof } ->
        Codec.u8 w 1;
        Codec.list w Codec.u64 rewards;
        Codec.bytes w proof
      | Finalize -> Codec.u8 w 2)
    m

let message_of_bytes b =
  Codec.decode
    (fun r ->
      match Codec.read_u8 r with
      | 0 ->
        let ciphertext = Codec.read_bytes r in
        let attestation = Codec.read_bytes r in
        Submit { ciphertext; attestation }
      | 1 ->
        let rewards = Codec.read_list r Codec.read_u64 in
        let proof = Codec.read_bytes r in
        Instruct { rewards; proof }
      | 2 -> Finalize
      | 3 ->
        let ciphertext = Codec.read_bytes r in
        let attestation = Codec.read_bytes r in
        Submit_plain { ciphertext; attestation }
      | _ -> raise (Codec.Decode_error "task: bad message tag"))
    b

let submission_digest worker ciphertext_bytes =
  let ctx = Sha256.init () in
  Sha256.update ctx (Address.to_bytes worker);
  Sha256.update ctx ciphertext_bytes;
  Fp.of_bytes_be (Sha256.finalize ctx)

(* --- behaviour --- *)

let revert fmt = Format.kasprintf (fun s -> raise (Contract.Revert s)) fmt

module Behavior = struct
  type nonrec storage = storage

  let name = behavior_name
  let encode = Codec.encode write_storage
  let decode = Codec.decode read_storage

  (* Algorithm 1 lines 3-4: budget deposited and requester identified. *)
  let init (ctx : Contract.context) args =
    let params = params_of_bytes args in
    if params.n <= 0 then revert "need n > 0";
    if params.budget <= 0 then revert "need a positive budget";
    if params.answer_deadline >= params.instruct_deadline then
      revert "instruction deadline must follow answer deadline";
    if ctx.Contract.self_balance < params.budget then revert "budget not deposited";
    ctx.Contract.charge Contract.Gas.snark_verify;
    let att =
      try Cpla.attestation_of_bytes params.requester_attestation
      with Codec.Decode_error e -> revert "malformed requester attestation: %s" e
    in
    let ok =
      Cpla.verify_with_vk ~vk_bytes:params.auth_vk
        ~prefix:(Address.to_field ctx.Contract.self)
        ~message:(Address.to_field ctx.Contract.sender)
        ~root:params.ra_root att
    in
    if not ok then revert "requester not identified";
    {
      params;
      requester = ctx.Contract.sender;
      phase = Collecting;
      submissions = [];
      requester_tag = att.Cpla.t1;
    }

  (* Checks common to both submission modes; returns the parsed
     ciphertext.  Lines 6-7 of Algorithm 1. *)
  let admission_checks ctx st ~ciphertext =
    (match st.phase with Collecting -> () | Finished -> revert "task finished");
    if ctx.Contract.height > st.params.answer_deadline then revert "answer deadline passed";
    if List.length st.submissions >= st.params.n then revert "enough answers collected";
    let ct =
      try Elgamal.ciphertext_of_bytes ciphertext
      with Codec.Decode_error e -> revert "malformed ciphertext: %s" e
    in
    if Elgamal.is_missing ct then revert "sentinel ciphertext";
    let sender = ctx.Contract.sender in
    if List.exists (fun s -> Address.equal s.worker sender) st.submissions then
      revert "address already submitted";
    ct

  (* Link against every prior submission (line 8).  With footnote 11's
     extension, an identity may appear up to [max_per_worker] times. *)
  let link_checks ctx st ~tag =
    ctx.Contract.charge (Contract.Gas.link_check * (1 + List.length st.submissions));
    if Fp.equal tag st.requester_tag then revert "linked: requester self-submission";
    let linked =
      List.length (List.filter (fun s -> Fp.equal s.tag tag) st.submissions)
    in
    if linked >= max 1 st.params.max_per_worker then revert "linked: double submission"

  let record_submission st ~worker ~ct ~tag =
    let st = { st with submissions = st.submissions @ [ { worker; ciphertext = ct; tag } ] } in
    (st, [ Contract.Log (Printf.sprintf "submission %d/%d" (List.length st.submissions) st.params.n) ])

  (* AnswerCollection, lines 6-9 (anonymous mode). *)
  let handle_submit ctx st ~ciphertext ~attestation =
    let ct = admission_checks ctx st ~ciphertext in
    let att =
      try Cpla.attestation_of_bytes attestation
      with Codec.Decode_error e -> revert "malformed attestation: %s" e
    in
    let sender = ctx.Contract.sender in
    link_checks ctx st ~tag:att.Cpla.t1;
    (* Verify over the digest of the *actual* sender and ciphertext. *)
    ctx.Contract.charge Contract.Gas.snark_verify;
    let ok =
      Cpla.verify_with_vk ~vk_bytes:st.params.auth_vk
        ~prefix:(Address.to_field ctx.Contract.self)
        ~message:(submission_digest sender ciphertext)
        ~root:st.params.ra_root att
    in
    if not ok then revert "invalid attestation";
    record_submission st ~worker:sender ~ct ~tag:att.Cpla.t1

  (* The non-anonymous mode of Section VI: a plain certificate chain and an
     RSA signature over the same (prefix, digest) pair.  Linking is by the
     (public) key hash. *)
  let handle_submit_plain ctx st ~ciphertext ~attestation =
    if Bytes.length st.params.ra_rsa_pub = 0 then
      revert "plain submissions disabled for this task";
    let ra_pub =
      try Zebra_rsa.Rsa.public_key_of_bytes st.params.ra_rsa_pub
      with Codec.Decode_error e -> revert "bad RA key in params: %s" e
    in
    let ct = admission_checks ctx st ~ciphertext in
    let att =
      try Plain_auth.attestation_of_bytes attestation
      with Codec.Decode_error e -> revert "malformed attestation: %s" e
    in
    let sender = ctx.Contract.sender in
    let tag = Plain_auth.tag att.Plain_auth.cert in
    link_checks ctx st ~tag;
    let ok =
      Plain_auth.verify ~ra_pub
        ~prefix:(Address.to_field ctx.Contract.self)
        ~message:(submission_digest sender ciphertext)
        att
    in
    if not ok then revert "invalid attestation";
    record_submission st ~worker:sender ~ct ~tag

  let collection_closed ctx st =
    List.length st.submissions >= st.params.n
    || ctx.Contract.height > st.params.answer_deadline

  (* Reward, lines 11-17. *)
  let handle_instruct ctx st ~rewards ~proof =
    (match st.phase with Collecting -> () | Finished -> revert "task finished");
    if not (Address.equal ctx.Contract.sender st.requester) then
      revert "only the requester instructs";
    if not (collection_closed ctx st) then revert "collection still open";
    if ctx.Contract.height > st.params.instruct_deadline then revert "instruction deadline passed";
    let n = st.params.n in
    if List.length rewards <> n then revert "need %d rewards" n;
    let rewards = Array.of_list rewards in
    let total = Array.fold_left ( + ) 0 rewards in
    if total > st.params.budget then revert "rewards exceed budget";
    let proof =
      try Zebra_snark.Snark.proof_of_bytes proof
      with Codec.Decode_error e -> revert "malformed proof: %s" e
    in
    let cts = Array.make n Elgamal.missing in
    List.iteri (fun i s -> cts.(i) <- s.ciphertext) st.submissions;
    let rho = Reward_circuit.rho_of ~policy:st.params.policy ~budget:st.params.budget ~n in
    ctx.Contract.charge Contract.Gas.snark_verify;
    let ok =
      Reward_circuit.verify ~vk_bytes:st.params.reward_vk ~epk:st.params.epk ~rho ~cts
        ~rewards proof
    in
    if not ok then revert "invalid reward proof";
    let payments =
      List.mapi (fun i s -> Contract.Transfer (s.worker, rewards.(i))) st.submissions
    in
    let paid = List.fold_left (fun acc s -> match s with Contract.Transfer (_, v) -> acc + v | _ -> acc) 0 payments in
    let refund = ctx.Contract.self_balance - paid in
    let actions =
      payments
      @ (if refund > 0 then [ Contract.Transfer (st.requester, refund) ] else [])
      @ [ Contract.Log "rewards distributed" ]
    in
    ({ st with phase = Finished }, actions)

  (* Fallback, lines 18-21. *)
  let handle_finalize ctx st =
    (match st.phase with Collecting -> () | Finished -> revert "task finished");
    if ctx.Contract.height <= st.params.instruct_deadline then
      revert "instruction deadline not reached";
    let submitted = List.length st.submissions in
    let share = Policy.fallback_share ~budget:st.params.budget ~submitted in
    let payments =
      if share > 0 then
        List.map (fun s -> Contract.Transfer (s.worker, share)) st.submissions
      else []
    in
    let refund = ctx.Contract.self_balance - (share * submitted) in
    let actions =
      payments
      @ (if refund > 0 then [ Contract.Transfer (st.requester, refund) ] else [])
      @ [ Contract.Log "fallback: budget split evenly" ]
    in
    ({ st with phase = Finished }, actions)

  let receive ctx st payload =
    match message_of_bytes payload with
    | Submit { ciphertext; attestation } -> handle_submit ctx st ~ciphertext ~attestation
    | Submit_plain { ciphertext; attestation } ->
      handle_submit_plain ctx st ~ciphertext ~attestation
    | Instruct { rewards; proof } -> handle_instruct ctx st ~rewards ~proof
    | Finalize -> handle_finalize ctx st
    | exception Codec.Decode_error e -> revert "bad payload: %s" e
end

let registered = ref false

let register () =
  if not !registered then begin
    Contract.register (module Behavior);
    registered := true
  end
