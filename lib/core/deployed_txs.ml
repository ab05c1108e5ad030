module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Tx = Zebra_chain.Tx
module Block = Zebra_chain.Block
module Cpla = Zebra_anonauth.Cpla
module Snark = Zebra_snark.Snark
module Store = Zebra_store.Store
module Obs = Zebra_obs.Obs
module Cs = Zebra_r1cs.Cs
module Gadgets = Zebra_r1cs.Gadgets
module Seclint = Zebra_lint.Seclint

let build_codecs () =
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
  let blocks = Network.blocks sys.Protocol.net in
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
     leaky-encoder fixture in [test_seclint.ml]. *)
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
  [ chain_case; snark_case; params_case ]

let registry = lazy (build_codecs ())
let codecs () = Lazy.force registry
