module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Block = Zebra_chain.Block
module Cpla = Zebra_anonauth.Cpla
module Snark = Zebra_snark.Snark
module Store = Zebra_store.Store
module Obs = Zebra_obs.Obs
module Cs = Zebra_r1cs.Cs
module Gadgets = Zebra_r1cs.Gadgets
module Txlint = Zebra_lint.Txlint
module Seclint = Zebra_lint.Seclint

(* Kind of a mined transaction, from its pre-state: contract deploys by
   behaviour, contract calls by behaviour + decoded message, everything
   else a plain transfer. *)
let classify st (tx : Tx.t) =
  match tx.Tx.dst with
  | Tx.Create { behavior; _ } -> "deploy." ^ behavior
  | Tx.Call dst -> (
    match State.contract_behavior st dst with
    | None -> "transfer"
    | Some b when b = Task_contract.behavior_name -> (
      match Task_contract.message_of_bytes tx.Tx.payload with
      | Task_contract.Submit _ -> b ^ ".submit"
      | Task_contract.Submit_plain _ -> b ^ ".submit-plain"
      | Task_contract.Instruct _ -> b ^ ".instruct"
      | Task_contract.Finalize -> b ^ ".finalize"
      | exception _ -> b ^ ".call")
    | Some b when b = Ra_contract.behavior_name -> b ^ ".set-root"
    | Some b when b = Reputation_contract.behavior_name -> (
      match Reputation_contract.message_of_bytes tx.Tx.payload with
      | Reputation_contract.Credit _ -> b ^ ".credit"
      | Reputation_contract.Claim _ -> b ^ ".claim"
      | Reputation_contract.Advance_epoch -> b ^ ".advance-epoch"
      | exception _ -> b ^ ".call")
    | Some b -> b ^ ".call")

type scenario = {
  s_cases : Txlint.case list;
  s_codecs : Seclint.codec_case list;
}

let build_scenario () =
  (* Enabled obs makes the export a non-vacuous ZL2xx sink; restore the
     caller's setting afterwards. *)
  let obs_was = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled obs_was) @@ fun () ->
  (* The chain itself comes from the shared fixture; this module only
     harvests it into the lint corpus. *)
  let { Scenario.sys; requester; w1; w2; task_a; task_b; board; rep = _ } =
    Scenario.build ~seed:Scenario.default_seed ()
  in
  (* --- harvest: serial replay from genesis, classifying every tx by
     exactly the state it executed on and keeping its receipt --- *)
  let blocks = Network.blocks sys.Protocol.net in
  let st = State.create ~genesis:(Network.genesis sys.Protocol.net) in
  let cases = ref [] in
  List.iter
    (fun (b : Block.t) ->
      let height = b.Block.header.Block.height in
      List.iteri
        (fun i tx ->
          let kind = classify st tx in
          let case = Printf.sprintf "block %d tx %d" height i in
          let receipt = State.apply_tx st ~height tx in
          cases := { Txlint.kind; case; receipt } :: !cases)
        b.Block.txs)
    blocks;
  let s_cases = List.rev !cases in
  (* --- ZL2xx codec registry --- *)
  let secrets_of_chain =
    [
      ("wallet.sk(faucet)", Wallet.secret_canary sys.Protocol.faucet);
      ("wallet.sk(task A requester)", Wallet.secret_canary task_a.Requester.wallet);
      ("cpla.msk(requester)", Cpla.key_canary requester.Protocol.key);
      ("cpla.msk(worker 1)", Cpla.key_canary w1.Protocol.key);
      ("cpla.msk(worker 2)", Cpla.key_canary w2.Protocol.key);
      ("requester.task.esk(task A)", Requester.esk_canary task_a);
      ("requester.task.esk(task B)", Requester.esk_canary task_b);
      ("snark.trapdoor.t_s(reward circuit A)", Reward_circuit.trapdoor_canary task_a.Requester.circuit);
    ]
  in
  let tx_outputs =
    List.concat_map
      (fun (b : Block.t) ->
        List.mapi
          (fun i tx ->
            ( Seclint.Serialization,
              Printf.sprintf "tx bytes (block %d tx %d)" b.Block.header.Block.height i,
              Tx.to_bytes tx ))
          b.Block.txs)
      blocks
  in
  let storage_outputs =
    List.filter_map
      (fun (name, addr) ->
        Option.map
          (fun bytes -> (Seclint.Serialization, "contract storage " ^ name, bytes))
          (Network.contract_storage sys.Protocol.net addr))
      [
        ("task A", task_a.Requester.contract);
        ("task B", task_b.Requester.contract);
        ("ra", sys.Protocol.ra_contract);
        ("reputation board", board);
      ]
  in
  let log_output =
    ( Seclint.Log_line,
      "network logs",
      Bytes.of_string (String.concat "\n" (Network.all_logs sys.Protocol.net)) )
  in
  let obs_output = (Seclint.Obs_export, "obs json export", Bytes.of_string (Obs.to_json_string ())) in
  let chain_case =
    {
      Seclint.codec = "chain.persisted";
      secrets = secrets_of_chain;
      outputs = tx_outputs @ storage_outputs @ [ log_output; obs_output ];
    }
  in
  (* The PR 5 regression lock, on the verifying-key side: the vk is the
     part of a keypair that leaves the requester's machine (on-chain task
     parameters, auditors), so its encoding, a content-addressed store
     round-trip of it, and the re-encoding of its decode must all be
     trapdoor-free.  The proving key's encoding is deliberately NOT a
     registered sink: the simulation models the real scheme's hiding
     commitments (a Lagrange-basis key g^(L_j(s/g)/Z(g)) for H and the
     wires' g^(A_i(s)), g^(B_i(s)), as a Groth16 proving key holds them)
     as raw field elements, so pk bytes determine s by construction — a
     modelling artifact, not a leak.  The historic bug (t_s written as an
     explicit field of the keypair encoding) is locked by a synthetic
     leaky-encoder fixture in [test_txlint.ml]. *)
  let snark_case =
    let cs = Cs.create () in
    let x = Cs.alloc_input cs ~label:"x" (Fp.of_int 3) in
    let _y = Gadgets.square cs (Gadgets.v x) in
    let kp = Snark.setup_rng ~rng:sys.Protocol.rng cs in
    let bytes = Snark.vk_to_bytes kp.Snark.vk in
    let store = Store.create () in
    let h = Store.put store bytes in
    let stored = Option.get (Store.get store h) in
    let reencoded = Snark.vk_to_bytes (Snark.vk_of_bytes bytes) in
    {
      Seclint.codec = "snark.keypair";
      secrets = [ ("snark.trapdoor.t_s", Snark.trapdoor_canary kp) ];
      outputs =
        [
          (Seclint.Serialization, "vk_to_bytes", bytes);
          (Seclint.Store_put, "store round-trip", stored);
          (Seclint.Serialization, "decode/re-encode", reencoded);
        ];
    }
  in
  let params_case =
    {
      Seclint.codec = "task.params";
      secrets =
        [
          ("requester.task.esk(task A)", Requester.esk_canary task_a);
          ("snark.trapdoor.t_s(reward circuit A)", Reward_circuit.trapdoor_canary task_a.Requester.circuit);
          ("cpla.msk(requester)", Cpla.key_canary requester.Protocol.key);
        ];
      outputs =
        [
          ( Seclint.Serialization,
            "params_to_bytes",
            Task_contract.params_to_bytes task_a.Requester.params );
        ];
    }
  in
  { s_cases; s_codecs = [ chain_case; snark_case; params_case ] }

let scenario = lazy (build_scenario ())

let cases () = (Lazy.force scenario).s_cases
let codecs () = (Lazy.force scenario).s_codecs

let kinds () =
  List.sort_uniq compare (List.map (fun (c : Txlint.case) -> c.Txlint.kind) (cases ()))
