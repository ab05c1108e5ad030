module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Cpla = Zebra_anonauth.Cpla
module Ra = Zebra_anonauth.Ra
module Source = Zebra_rng.Source
module Obs = Zebra_obs.Obs
module Parallel = Zebra_parallel.Parallel

let max_attempts = 3
let backoff_blocks = 2

type system = {
  net : Network.t;
  cpla : Cpla.params;
  ra : Ra.t;
  ra_contract : Address.t;
  faucet : Wallet.t;
  ra_rsa : Zebra_rsa.Rsa.private_key;
  rng : Source.t;
  setup_seed : string;
  keycache : Zebra_snark.Snark.Keycache.t;
}

type identity = { key : Cpla.user_key; cert_index : int }

type error =
  | Rejected of { phase : string; index : int; reason : string }
  | Timed_out of { phase : string; attempts : int }
  | Node_down of string

let error_to_string = function
  | Rejected { phase; index; reason } ->
    Printf.sprintf "%s: transaction %d rejected: %s" phase index reason
  | Timed_out { phase; attempts } ->
    Printf.sprintf "%s timed out: transaction not mined after %d broadcast(s)" phase attempts
  | Node_down reason -> "replica failure: " ^ reason

let get_ok = function Ok v -> v | Error e -> raise (Failure ("Protocol: " ^ error_to_string e))

let random_bytes sys n = Source.bytes sys.rng n

(* Phase metrics (inert until [Obs.set_enabled true]). *)
let m_enrolled = Obs.Counter.make "protocol.enrolled"
let m_tasks = Obs.Counter.make "protocol.tasks"
let m_answers = Obs.Counter.make "protocol.answers"
let m_audited = Obs.Counter.make "protocol.audit.attestations"
let m_resubmits = Obs.Counter.make "protocol.retry.resubmits"
let m_recovered = Obs.Counter.make "protocol.retry.recovered"
let m_timeouts = Obs.Counter.make "protocol.retry.timeouts"
let m_node_down = Obs.Counter.make "protocol.retry.node_down"

let faucet_supply = 1_000_000_000

let ( let* ) = Result.bind

(* Mine one block, mapping a replica divergence (a crashed node whose
   re-sync failed, or diverging live replicas) to the typed error —
   permanent faults retries cannot ride out. *)
let mine_r sys =
  match Network.mine sys.net with
  | (_ : State.receipt list) -> Ok ()
  | exception Network.Consensus_failure why ->
    Obs.Counter.incr m_node_down;
    Error (Node_down why)

(* --- Phases: the one confirm loop.  A phase is the transactions one step
   of a task broadcast plus the [value] it settles to; [poll] runs after
   each mined block and applies the one settle rule. --- *)

type 'a phase = {
  name : string;  (* labels a [Rejected] or [Timed_out] *)
  txs : Tx.t list;  (* broadcast *)
  value : 'a;  (* the result once every receipt is Ok *)
  mutable attempts : int;  (* broadcasts so far *)
  mutable waited : int;  (* blocks mined since the last broadcast *)
}

let broadcast sys tx =
  match Network.submit_r sys.net tx with
  | Ok () -> ()
  | Error e ->
    (* Protocol only builds well-signed transactions; a refusal here is a
       programming error, not a network fault. *)
    invalid_arg ("Protocol: " ^ Network.submit_error_to_string e)

(* A phase over transactions the caller already broadcast. *)
let phase ~name txs value =
  { name; txs; value; attempts = 1; waited = 0 }

let single sys ~name tx value =
  broadcast sys tx;
  phase ~name [ tx ] value

(* Every receipt Ok: settle to the value.  A failed receipt: [Rejected]
   naming the first one — at once if every receipt is in, otherwise after
   the synchrony bound ([backoff_blocks] blocks after the broadcast's
   own).  Receipts still missing after the bound are rebroadcast, up to
   [max_attempts] broadcasts before [Timed_out].  A rebroadcast whose
   delayed copy later arrives is safe: the duplicate fails nonce replay
   and the first receipt is canonical. *)
let poll sys p =
  p.waited <- p.waited + 1;
  let statuses =
    List.map
      (fun tx -> Option.map (fun r -> r.State.status) (Network.receipt sys.net (Tx.hash tx)))
      p.txs
  in
  let rejected =
    let rec first index = function
      | Some (State.Failed reason) :: _ -> Some (Rejected { phase = p.name; index; reason })
      | _ :: rest -> first (index + 1) rest
      | [] -> None
    in
    first 0 statuses
  in
  let settled = match rejected with Some e -> Error e | None -> Ok p.value in
  if List.for_all Option.is_some statuses then begin
    if p.attempts > 1 || p.waited > 1 then Obs.Counter.incr m_recovered;
    Some settled
  end
  else if p.waited <= backoff_blocks then None
  else if Option.is_some rejected then Some settled
  else if p.attempts >= max_attempts then begin
    Obs.Counter.incr m_timeouts;
    Some (Error (Timed_out { phase = p.name; attempts = p.attempts }))
  end
  else begin
    List.iter2
      (fun tx status ->
        if status = None then begin
          Obs.Counter.incr m_resubmits;
          broadcast sys tx
        end)
      p.txs statuses;
    p.attempts <- p.attempts + 1;
    p.waited <- 0;
    None
  end

(* Mine blocks, polling [p] after each, until it settles: one block on the
   happy path.  A replica failure while mining is [Error (Node_down _)]. *)
let rec await sys p =
  let* () = mine_r sys in
  match poll sys p with Some result -> result | None -> await sys p

let create_system ?(num_nodes = 3) ?(tree_depth = 6) ?rng ~seed () =
  Task_contract.register ();
  Ra_contract.register ();
  let rng = match rng with Some s -> s | None -> Source.of_seed seed in
  let rb = Source.fn rng in
  let faucet = Wallet.generate ~random_bytes:rb () in
  let net =
    Network.create ~num_nodes ~genesis:[ (Wallet.address faucet, faucet_supply) ] ()
  in
  (* The system memo serves the CPLA setup too.  Setup randomness derives
     from [seed], not the shared [rng] stream, so hit and miss yield the
     same keys. *)
  let keycache = Zebra_snark.Snark.Keycache.create () in
  let cpla = Cpla.setup_cached keycache ~seed:(seed ^ "/cpla-auth") ~depth:tree_depth in
  let ra = Ra.create ~depth:tree_depth () in
  let ra_rsa = Zebra_rsa.Rsa.generate ~bits:512 ~random_bytes:rb in
  let sys =
    {
      net;
      cpla;
      ra;
      ra_contract = Address.of_creator (Wallet.address faucet) 0;
      faucet;
      ra_rsa;
      rng;
      setup_seed = seed;
      keycache;
    }
  in
  let deploy =
    Tx.make ~wallet:faucet ~nonce:0
      ~dst:
        (Tx.Create
           {
             behavior = Ra_contract.behavior_name;
             args = Ra_contract.init_args ~auth_vk:(Cpla.vk_to_bytes cpla) ~root:(Ra.root ra);
           })
      ~value:0 ~payload:Bytes.empty
  in
  get_ok (await sys (single sys ~name:"ra_deployment" deploy ()));
  sys

let faucet_nonce sys = Network.nonce sys.net (Wallet.address sys.faucet)

let register sys =
  let key = Cpla.keygen_rng ~composition:(Cpla.composition sys.cpla) ~rng:sys.rng () in
  { key; cert_index = Ra.register sys.ra key.Cpla.pk }

(* The RA operator (we reuse the faucet wallet as the operator) posts the
   new root after registrations. *)
let post_root_r sys =
  let tx =
    Tx.make ~wallet:sys.faucet ~nonce:(faucet_nonce sys) ~dst:(Tx.Call sys.ra_contract)
      ~value:0 ~payload:(Ra_contract.set_root_msg (Ra.root sys.ra))
  in
  await sys (single sys ~name:"ra_root_update" tx ())

let enroll_r sys =
  Obs.with_span "protocol.register" @@ fun () ->
  let id = register sys in
  let* () = post_root_r sys in
  Obs.Counter.incr m_enrolled;
  Ok id

let enroll_plain sys =
  Obs.with_span "protocol.register" @@ fun () ->
  let priv = Zebra_rsa.Rsa.generate ~bits:512 ~random_bytes:(random_bytes sys) in
  let cert = Plain_auth.issue ~ra_priv:sys.ra_rsa priv.Zebra_rsa.Rsa.pub in
  Obs.Counter.incr m_enrolled;
  (priv, cert)

let ra_rsa_pub_bytes sys = Zebra_rsa.Rsa.public_key_to_bytes sys.ra_rsa.Zebra_rsa.Rsa.pub

let fresh_wallet sys = Wallet.generate ~random_bytes:(random_bytes sys) ()

(* A task contract's decoded storage.  A missing contract — its deployment
   requeued by a reorg or lost to a drop — rejects [phase] before its
   first transaction is built. *)
let storage_r sys ~phase contract =
  match Network.contract_storage sys.net contract with
  | Some bytes -> Ok (Task_contract.storage_of_bytes bytes)
  | None -> Error (Rejected { phase; index = 0; reason = "no such task contract" })

let task_storage sys contract = get_ok (storage_r sys ~phase:"task_storage" contract)

(* --- Task phases: the one place a funding, publish, answer or instruct
   transaction is built, shared by the drivers below, the pipelined
   [Load] scheduler and [Chaos]. --- *)

let funding ?(fee = 0) ?nonce sys wallet ~amount =
  let nonce = match nonce with Some k -> k | None -> faucet_nonce sys in
  let tx =
    Tx.make_ext ~wallet:sys.faucet ~fee ~footprint:[] ~nonce
      ~dst:(Tx.Call (Wallet.address wallet))
      ~value:amount ~payload:Bytes.empty
  in
  single sys ~name:"faucet_funding" tx wallet

let fresh_funded_wallet_r sys ~amount = await sys (funding sys (fresh_wallet sys) ~amount)

(* Setup randomness derives from the system seed (not the shared
   [sys.rng] stream), so a memo hit returns the keys a fresh setup would:
   repeat publications of one (policy, n) shape skip the trusted setup. *)
let reward_circuit sys ~policy ~n =
  Reward_circuit.setup_cached sys.keycache ~seed:(sys.setup_seed ^ "/reward-circuit") ~policy ~n

(* The deployment lands at [Address.of_creator wallet 0], the address
   [Requester.create_task] predicts for [task.contract]. *)
let publish sys ~requester ~wallet ~policy ~n ~budget ?(answer_window = 20)
    ?(instruct_window = 40) ?max_per_worker ?ra_rsa_pub ?data_digest ?fee () =
  let circuit = reward_circuit sys ~policy ~n in
  let height = Network.height sys.net in
  let task, tx =
    Requester.create_task ~circuit ?max_per_worker ?ra_rsa_pub ?data_digest ?fee
      ~random_bytes:(random_bytes sys) ~cpla:sys.cpla ~key:requester.key
      ~cert_index:requester.cert_index
      ~ra_path:(Ra.path sys.ra requester.cert_index)
      ~ra_root:(Ra.root sys.ra) ~wallet ~nonce:0 ~policy ~n ~budget
      ~answer_deadline:(height + answer_window)
      ~instruct_deadline:(height + answer_window + instruct_window)
      ()
  in
  Obs.Counter.incr m_tasks;
  single sys ~name:"task_publish" tx task

let answer_tx sys ~storage ~task ~wallet worker ~answer =
  Worker.submit_tx ~random_bytes:(random_bytes sys) ~cpla:sys.cpla ~storage ~contract:task
    ~wallet ~key:worker.key ~cert_index:worker.cert_index
    ~ra_path:(Ra.path sys.ra worker.cert_index)
    ~answer ~nonce:0

let answers sys ~task ~wallet workers =
  let name = "answer_collection" in
  let* storage = storage_r sys ~phase:name task in
  let* () =
    Worker.validate_task ~storage ~contract:task ~balance:(Network.balance sys.net task)
      ~height:(Network.height sys.net)
      ~expected_root:storage.Task_contract.params.Task_contract.ra_root
    |> Result.map_error (fun e ->
           Rejected
             {
               phase = name;
               index = 0;
               reason = "task validation failed: " ^ Worker.validation_error_to_string e;
             })
  in
  (* Wallet and proof draws interleave worker by worker: the chain bytes
     of every caller, [Load]'s pinned root among them, follow that order. *)
  let sent =
    List.mapi
      (fun i (identity, answer) ->
        let w = wallet i in
        let tx = answer_tx sys ~storage ~task ~wallet:w identity ~answer in
        broadcast sys tx;
        (tx, w))
      workers
  in
  Obs.Counter.add m_answers (List.length sent);
  Ok (phase ~name (List.map fst sent) (List.map snd sent))

let instruct ?fee sys (task : Requester.task) =
  let name = "reward" in
  let* storage = storage_r sys ~phase:name task.Requester.contract in
  let rewards, tx =
    Requester.instruct ?fee ~random_bytes:(random_bytes sys) task ~storage
      ~nonce:(Network.nonce sys.net (Wallet.address task.Requester.wallet))
  in
  Ok (single sys ~name tx rewards)

(* --- Phase drivers: each awaits its phases in turn. --- *)

let publish_task_r sys ~requester ~policy ~n ~budget ?answer_window ?instruct_window
    ?max_per_worker ?ra_rsa_pub ?data_digest () =
  Obs.with_span "protocol.task_publish" @@ fun () ->
  let* wallet = fresh_funded_wallet_r sys ~amount:(budget + 1) in
  await sys
    (publish sys ~requester ~wallet ~policy ~n ~budget ?answer_window ?instruct_window
       ?max_per_worker ?ra_rsa_pub ?data_digest ())

let submit_answers_r sys ~task ~workers =
  Obs.with_span "protocol.answer_collection" @@ fun () ->
  let* p = answers sys ~task ~wallet:(fun _ -> fresh_wallet sys) workers in
  await sys p

(* A reorg can re-mine the submissions in another order after the
   instruction was proved over them (a byzantine sibling of the answers
   block, a partition heal), and the contract then rejects the proof: a
   rejected instruction whose deployed task's storage has since moved is
   proved again, up to [max_attempts] proofs. *)
let reward_r sys (task : Requester.task) =
  Obs.with_span "protocol.reward" @@ fun () ->
  let storage () = Network.contract_storage sys.net task.Requester.contract in
  let rec prove k =
    let basis = storage () in
    match Result.bind (instruct sys task) (await sys) with
    | Error (Rejected _) when k < max_attempts && storage () <> None && storage () <> basis ->
      prove (k + 1)
    | result -> result
  in
  prove 1

(* Result-aware [Network.mine_until]: the block clock may trip a scheduled
   crash window, so each tick can surface a replica failure. *)
let rec mine_to_r sys ~height =
  if Network.height sys.net >= height then Ok ()
  else
    let* () = mine_r sys in
    mine_to_r sys ~height

let finalize_r sys (task : Requester.task) =
  Obs.with_span "protocol.finalize" @@ fun () ->
  let* () = mine_to_r sys ~height:(task.Requester.params.Task_contract.instruct_deadline + 1) in
  let name = "finalize" in
  (* A reorg may have undone the publish: reject before sending a
     Finalize that would land as a plain transfer. *)
  let* _ = storage_r sys ~phase:name task.Requester.contract in
  let tx =
    Tx.make ~wallet:(fresh_wallet sys) ~nonce:0 ~dst:(Tx.Call task.Requester.contract) ~value:0
      ~payload:(Task_contract.message_to_bytes Task_contract.Finalize)
  in
  await sys (single sys ~name tx ())

(* --- Audit --- *)

type audit_report = { all_valid : bool; checked : int; offenders : int list }

let audit_task_report sys ~task =
  Obs.with_span "protocol.audit" @@ fun () ->
  let params = (task_storage sys task).Task_contract.params in
  let prefix = Address.to_field task in
  (* Every mined submission to [task], in chain order.  Attestations live
     in transaction payloads, not in contract storage, so the audit walks
     the blocks the way an external verifier would. *)
  let submissions =
    List.concat_map
      (fun (b : Zebra_chain.Block.t) ->
        List.filter_map
          (fun (tx : Tx.t) ->
            match tx.Tx.dst with
            | Tx.Call a when Address.equal a task -> (
              match Task_contract.message_of_bytes tx.Tx.payload with
              | Task_contract.Submit { ciphertext; attestation } ->
                Some (`Anon (tx.Tx.sender, ciphertext, attestation))
              | Task_contract.Submit_plain { ciphertext; attestation } ->
                Some (`Plain (tx.Tx.sender, ciphertext, attestation))
              | _ | (exception Zebra_codec.Codec.Decode_error _) -> None)
            | _ -> None)
          b.Zebra_chain.Block.txs)
      (Network.blocks sys.net)
    |> Array.of_list
  in
  (* Each submission's check is the one the contract admitted it with:
     the same verifier, over the digest of the actual sender and
     ciphertext. *)
  let verify = function
    | `Anon (sender, ciphertext, attestation) ->
      Cpla.verify_with_vk ~vk_bytes:params.Task_contract.auth_vk ~prefix
        ~message:(Task_contract.submission_digest sender ciphertext)
        ~root:params.Task_contract.ra_root
        (Cpla.attestation_of_bytes attestation)
    | `Plain (sender, ciphertext, attestation) ->
      Plain_auth.verify
        ~ra_pub:(Zebra_rsa.Rsa.public_key_of_bytes params.Task_contract.ra_rsa_pub)
        ~prefix
        ~message:(Task_contract.submission_digest sender ciphertext)
        (Plain_auth.attestation_of_bytes attestation)
  in
  let count = Array.length submissions in
  (* One verdict per slot, so the report is the same at any pool size.
     An attestation that does not decode fails its check. *)
  let valid = Array.make count false in
  Parallel.parallel_for ~min_chunk:1 count (fun lo hi ->
      for i = lo to hi - 1 do
        valid.(i) <-
          (try verify submissions.(i) with Zebra_codec.Codec.Decode_error _ -> false)
      done);
  let offenders = List.filter (fun i -> not valid.(i)) (List.init count Fun.id) in
  Obs.Counter.add m_audited count;
  { all_valid = offenders = []; checked = count; offenders }

let run_batch sys ~policy ~budget_per_task ~answer_sets =
  (match answer_sets with
  | [] -> invalid_arg "Protocol.run_batch: empty batch"
  | first :: rest ->
    let n = List.length first in
    if n = 0 || List.exists (fun a -> List.length a <> n) rest then
      invalid_arg "Protocol.run_batch: ragged answer sets");
  let n = List.length (List.hd answer_sets) in
  let requester = get_ok (enroll_r sys) in
  let workers = List.init n (fun _ -> get_ok (enroll_r sys)) in
  List.map
    (fun answers ->
      let task =
        get_ok (publish_task_r sys ~requester ~policy ~n ~budget:budget_per_task ())
      in
      let pairs = List.map2 (fun w a -> (w, a)) workers answers in
      ignore (get_ok (submit_answers_r sys ~task:task.Requester.contract ~workers:pairs));
      get_ok (reward_r sys task))
    answer_sets

let run_task sys ~policy ~budget ~answers =
  let requester = get_ok (enroll_r sys) in
  let workers = List.map (fun a -> (get_ok (enroll_r sys), a)) answers in
  let n = List.length answers in
  let task = get_ok (publish_task_r sys ~requester ~policy ~n ~budget ()) in
  let wallets = get_ok (submit_answers_r sys ~task:task.Requester.contract ~workers) in
  (task, wallets, get_ok (reward_r sys task))
