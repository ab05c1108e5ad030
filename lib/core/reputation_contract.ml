module Codec = Zebra_codec.Codec
module Contract = Zebra_chain.Contract
module Address = Zebra_chain.Address
module Snark = Zebra_snark.Snark

type storage = {
  owner : Address.t;
  link_vk : bytes;
  epoch : int;
  credits : (string * (int * Fp.t)) list;
  scores : (string * int) list;
}

type message =
  | Credit of { task_tag : Fp.t; task_prefix : Fp.t; score : int }
  | Claim of { task_tag : Fp.t; pseudonym : Fp.t; proof : bytes }
  | Advance_epoch

let behavior_name = "zebralancer-reputation"

let key_of_tag tag = Zebra_hashing.Sha256.to_hex (Fp.to_bytes_be tag)

let write_storage w st =
  Address.write w st.owner;
  Codec.bytes w st.link_vk;
  Codec.u64 w st.epoch;
  Codec.list w
    (fun w (k, (score, prefix)) ->
      Codec.string w k;
      Codec.u64 w score;
      Fp.write w prefix)
    st.credits;
  Codec.list w
    (fun w (k, score) ->
      Codec.string w k;
      Codec.u64 w score)
    st.scores

let read_storage r =
  let owner = Address.read r in
  let link_vk = Codec.read_bytes r in
  let epoch = Codec.read_u64 r in
  let credits =
    Codec.read_list r (fun r ->
        let k = Codec.read_string r in
        let score = Codec.read_u64 r in
        let prefix = Fp.read r in
        (k, (score, prefix)))
  in
  let scores =
    Codec.read_list r (fun r ->
        let k = Codec.read_string r in
        let score = Codec.read_u64 r in
        (k, score))
  in
  { owner; link_vk; epoch; credits; scores }

let storage_of_bytes = Codec.decode read_storage

let init_args ~link_vk = Codec.encode Codec.bytes link_vk

let message_to_bytes m =
  Codec.encode
    (fun w m ->
      match m with
      | Credit { task_tag; task_prefix; score } ->
        Codec.u8 w 0;
        Fp.write w task_tag;
        Fp.write w task_prefix;
        Codec.u64 w score
      | Claim { task_tag; pseudonym; proof } ->
        Codec.u8 w 1;
        Fp.write w task_tag;
        Fp.write w pseudonym;
        Codec.bytes w proof
      | Advance_epoch -> Codec.u8 w 2)
    m

let message_of_bytes b =
  Codec.decode
    (fun r ->
      match Codec.read_u8 r with
      | 0 ->
        let task_tag = Fp.read r in
        let task_prefix = Fp.read r in
        let score = Codec.read_u64 r in
        Credit { task_tag; task_prefix; score }
      | 1 ->
        let task_tag = Fp.read r in
        let pseudonym = Fp.read r in
        let proof = Codec.read_bytes r in
        Claim { task_tag; pseudonym; proof }
      | 2 -> Advance_epoch
      | _ -> raise (Codec.Decode_error "reputation: bad message tag"))
    b

let score st pseudonym =
  match List.assoc_opt (key_of_tag pseudonym) st.scores with Some s -> s | None -> 0

let revert fmt = Format.kasprintf (fun s -> raise (Contract.Revert s)) fmt

module Behavior = struct
  type nonrec storage = storage

  let name = behavior_name
  let encode = Codec.encode write_storage
  let decode = storage_of_bytes

  let init (ctx : Contract.context) args =
    let link_vk = Codec.decode Codec.read_bytes args in
    { owner = ctx.Contract.sender; link_vk; epoch = 0; credits = []; scores = [] }

  let receive (ctx : Contract.context) st payload =
    match message_of_bytes payload with
    | Credit { task_tag; task_prefix; score } ->
      if not (Address.equal ctx.Contract.sender st.owner) then
        revert "only the owner credits";
      if score <= 0 then revert "need a positive score";
      let k = key_of_tag task_tag in
      if List.mem_assoc k st.credits then revert "tag already credited";
      ( { st with credits = (k, (score, task_prefix)) :: st.credits },
        [ Contract.Log "credited" ] )
    | Claim { task_tag; pseudonym; proof } ->
      let k = key_of_tag task_tag in
      let score, task_prefix =
        match List.assoc_opt k st.credits with
        | Some sp -> sp
        | None -> revert "no unclaimed credit for this tag"
      in
      let proof =
        try Snark.proof_of_bytes proof
        with Codec.Decode_error e -> revert "malformed proof: %s" e
      in
      ctx.Contract.charge Contract.Gas.snark_verify;
      let ok =
        Reputation.verify_link ~vk_bytes:st.link_vk ~task_tag ~pseudonym ~task_prefix
          ~epoch:st.epoch proof
      in
      if not ok then revert "invalid link proof";
      let pk = key_of_tag pseudonym in
      let prev = match List.assoc_opt pk st.scores with Some s -> s | None -> 0 in
      ( {
          st with
          credits = List.remove_assoc k st.credits;
          scores = (pk, prev + score) :: List.remove_assoc pk st.scores;
        },
        [ Contract.Log (Printf.sprintf "claimed %d" score) ] )
    | Advance_epoch ->
      if not (Address.equal ctx.Contract.sender st.owner) then
        revert "only the owner advances the epoch";
      ({ st with epoch = st.epoch + 1 }, [ Contract.Log "epoch advanced" ])
    | exception Codec.Decode_error e -> revert "bad payload: %s" e
end

let registered = ref false

let register () =
  if not !registered then begin
    Contract.register (module Behavior);
    registered := true
  end
