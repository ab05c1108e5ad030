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

type retry_policy = { max_attempts : int; backoff_blocks : int }

let default_retry = { max_attempts = 3; backoff_blocks = 2 }

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
  retry : retry_policy;
}

type identity = { key : Cpla.user_key; cert_index : int }

type error =
  | Deploy_rejected of string
  | Submission_rejected of { worker : int; reason : string }
  | Instruction_rejected of string
  | Timed_out of { phase : string; attempts : int }
  | Node_down of string

let error_to_string = function
  | Deploy_rejected reason -> "task deployment rejected: " ^ reason
  | Submission_rejected { worker; reason } ->
    Printf.sprintf "submission of worker %d rejected: %s" worker reason
  | Instruction_rejected reason -> "reward instruction rejected: " ^ reason
  | Timed_out { phase; attempts } ->
    Printf.sprintf "%s timed out: transaction not mined after %d broadcast(s)" phase attempts
  | Node_down reason -> "replica failure: " ^ reason

let get_ok = function Ok v -> v | Error e -> failwith ("Protocol: " ^ error_to_string e)

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
   of a task broadcast plus the [finish] that turns their receipts into
   the step's result; [poll] runs after each mined block and applies
   [sys.retry]. --- *)

type 'a phase = {
  name : string;  (* labels a [Timed_out] *)
  txs : (Tx.t * bytes) list;  (* broadcast, with their hashes *)
  finish : State.status option list -> ('a, error) result;
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
let phase ~name txs finish =
  { name; txs = List.map (fun tx -> (tx, Tx.hash tx)) txs; finish; attempts = 1; waited = 0 }

(* Broadcasts [tx] as a phase of its own; [finish] sees its status. *)
let single sys ~name tx finish =
  broadcast sys tx;
  phase ~name [ tx ] (function
    | [ Some status ] -> finish status
    | _ -> invalid_arg "Protocol: a one-transaction phase settles on its receipt")

(* Every receipt in: settle.  Otherwise wait out the synchrony bound
   ([backoff_blocks] blocks after the broadcast's own), then report a
   failed receipt, or rebroadcast the stragglers — up to [max_attempts]
   broadcasts before [Timed_out].  A rebroadcast whose delayed copy later
   arrives is safe: the duplicate fails nonce replay and the first receipt
   is canonical. *)
let poll sys p =
  p.waited <- p.waited + 1;
  let statuses =
    List.map
      (fun (_, hash) -> Option.map (fun r -> r.State.status) (Network.receipt sys.net hash))
      p.txs
  in
  if List.for_all Option.is_some statuses then begin
    if p.attempts > 1 || p.waited > 1 then Obs.Counter.incr m_recovered;
    Some (p.finish statuses)
  end
  else if p.waited <= sys.retry.backoff_blocks then None
  else if List.exists (function Some (State.Failed _) -> true | _ -> false) statuses then
    Some (p.finish statuses)
  else if p.attempts >= sys.retry.max_attempts then begin
    Obs.Counter.incr m_timeouts;
    Some (Error (Timed_out { phase = p.name; attempts = p.attempts }))
  end
  else begin
    List.iter2
      (fun (tx, _) status ->
        if status = None then begin
          Obs.Counter.incr m_resubmits;
          broadcast sys tx
        end)
      p.txs statuses;
    p.attempts <- p.attempts + 1;
    p.waited <- 0;
    None
  end

let rec await sys p =
  let* () = mine_r sys in
  match poll sys p with Some result -> result | None -> await sys p

let create_system ?(num_nodes = 3) ?(tree_depth = 6) ?rng ?(retry = default_retry) ~seed () =
  if retry.max_attempts < 1 then invalid_arg "Protocol.create_system: max_attempts must be >= 1";
  if retry.backoff_blocks < 0 then
    invalid_arg "Protocol.create_system: backoff_blocks must be >= 0";
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
      retry;
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
  get_ok
    (await sys
       (single sys ~name:"ra_deployment" deploy (function
         | State.Ok (Some _) -> Ok ()
         | State.Ok None -> failwith "Protocol: RA deployment returned no address"
         | State.Failed e -> failwith ("Protocol: RA contract deployment failed: " ^ e))));
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
  await sys
    (single sys ~name:"ra_root_update" tx (function
      | State.Ok _ -> Ok ()
      | State.Failed e -> failwith ("Protocol: RA root update failed: " ^ e)))

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

let task_storage sys contract =
  match Network.contract_storage sys.net contract with
  | Some bytes -> Task_contract.storage_of_bytes bytes
  | None -> failwith "Protocol: no such task contract"

(* --- Task phases: the one place a funding, publish, answer or instruct
   transaction is built, shared by the drivers below, the pipelined
   [Load] scheduler and the [Chaos] eclipse path. --- *)

let funding ?(fee = 0) ?nonce sys wallet ~amount =
  let nonce = match nonce with Some k -> k | None -> faucet_nonce sys in
  let tx =
    Tx.make_ext ~wallet:sys.faucet ~fee ~footprint:[] ~nonce
      ~dst:(Tx.Call (Wallet.address wallet))
      ~value:amount ~payload:Bytes.empty
  in
  single sys ~name:"faucet_funding" tx (function
    | State.Ok _ -> Ok wallet
    | State.Failed e -> failwith ("Protocol: faucet funding failed: " ^ e))

let fresh_funded_wallet_r ?(phase = "faucet_funding") sys ~amount =
  await sys { (funding sys (fresh_wallet sys) ~amount) with name = phase }

(* Setup randomness derives from the system seed (not the shared
   [sys.rng] stream), so a memo hit returns the keys a fresh setup would:
   repeat publications of one (policy, n) shape skip the trusted setup. *)
let reward_circuit sys ~policy ~n =
  Reward_circuit.setup_cached sys.keycache ~seed:(sys.setup_seed ^ "/reward-circuit") ~policy ~n

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
  single sys ~name:"task_publish" tx (function
    | State.Ok (Some addr) when Address.equal addr task.Requester.contract ->
      Obs.Counter.incr m_tasks;
      Ok task
    | State.Ok (Some _) -> Error (Deploy_rejected "contract address prediction failed")
    | State.Ok None -> Error (Deploy_rejected "deployment returned no address")
    | State.Failed e -> Error (Deploy_rejected e))

let answer_tx sys ~storage ~task ~wallet worker ~answer =
  Worker.submit_tx ~random_bytes:(random_bytes sys) ~cpla:sys.cpla ~storage ~contract:task
    ~wallet ~key:worker.key ~cert_index:worker.cert_index
    ~ra_path:(Ra.path sys.ra worker.cert_index)
    ~answer ~nonce:0

let answers sys ~task ~wallet workers =
  let storage = task_storage sys task in
  let rec send i sent = function
    | [] -> Ok (List.rev sent)
    | (identity, answer) :: rest ->
      let* w = wallet i in
      let tx = answer_tx sys ~storage ~task ~wallet:w identity ~answer in
      broadcast sys tx;
      send (i + 1) ((tx, w) :: sent) rest
  in
  let* sent = send 0 [] workers in
  let rec first_failure i = function
    | Some (State.Failed reason) :: _ -> Error (Submission_rejected { worker = i; reason })
    | _ :: rest -> first_failure (i + 1) rest
    | [] ->
      Obs.Counter.add m_answers (List.length sent);
      Ok (List.map snd sent)
  in
  Ok (phase ~name:"answer_collection" (List.map fst sent) (first_failure 0))

let instruct ?fee sys (task : Requester.task) =
  let rewards, tx =
    Requester.instruct ?fee ~random_bytes:(random_bytes sys) task
      ~storage:(task_storage sys task.Requester.contract)
      ~nonce:(Network.nonce sys.net (Wallet.address task.Requester.wallet))
  in
  single sys ~name:"reward" tx (function
    | State.Ok _ -> Ok rewards
    | State.Failed e -> Error (Instruction_rejected e))

(* --- Phase drivers: each awaits its phases in turn. --- *)

let publish_task_r sys ~requester ~policy ~n ~budget ?answer_window ?instruct_window
    ?max_per_worker ?ra_rsa_pub ?data_digest () =
  Obs.with_span "protocol.task_publish" @@ fun () ->
  let* wallet = fresh_funded_wallet_r sys ~phase:"task_publish" ~amount:(budget + 1) in
  await sys
    (publish sys ~requester ~wallet ~policy ~n ~budget ?answer_window ?instruct_window
       ?max_per_worker ?ra_rsa_pub ?data_digest ())

let submit_answers_r sys ~task ~workers =
  Obs.with_span "protocol.answer_collection" @@ fun () ->
  let storage = task_storage sys task in
  (* Each worker awaits the faucet's funding of a fresh one-task wallet,
     then checks the task before answering from it. *)
  let funded worker =
    let* wallet = fresh_funded_wallet_r sys ~phase:"answer_collection" ~amount:10 in
    match
      Worker.validate_task ~storage ~contract:task ~balance:(Network.balance sys.net task)
        ~height:(Network.height sys.net)
        ~expected_root:storage.Task_contract.params.Task_contract.ra_root
    with
    | Ok () -> Ok wallet
    | Error e ->
      Error
        (Submission_rejected
           { worker; reason = "task validation failed: " ^ Worker.validation_error_to_string e })
  in
  let* p = answers sys ~task ~wallet:funded workers in
  await sys p

let reward_r sys task =
  Obs.with_span "protocol.reward" @@ fun () -> await sys (instruct sys task)

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
  let* caller = fresh_funded_wallet_r sys ~phase:"finalize" ~amount:10 in
  let storage = task_storage sys task.Requester.contract in
  let tx =
    Tx.make_ext ~wallet:caller ~fee:0
      ~footprint:(Requester.settlement_footprint ~sender:(Wallet.address caller) storage)
      ~nonce:0 ~dst:(Tx.Call task.Requester.contract) ~value:0
      ~payload:(Task_contract.message_to_bytes Task_contract.Finalize)
  in
  await sys
    (single sys ~name:"finalize" tx (function
      | State.Ok _ -> Ok ()
      | State.Failed e -> Error (Instruction_rejected e)))

(* --- Audit --- *)

type audit_report = {
  all_valid : bool;
  checked : int;
  batches : int;
  fallbacks : int;
  offenders : int list;
}

let m_batches = Obs.Counter.make "audit.batch.batches"
let m_fallbacks = Obs.Counter.make "audit.batch.fallbacks"
let m_offenders = Obs.Counter.make "audit.batch.offenders"

let audit_task_report ?(batch_size = 32) ?seed sys ~task =
  if batch_size < 1 then invalid_arg "Protocol.audit_task_report: batch_size must be >= 1";
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
  let count = Array.length submissions in
  let bad = ref [] in
  let mark i = bad := i :: !bad in
  (* Partition: anonymous attestations that decode share the contract's
     CPLA key, so they batch; malformed ones are offenders outright and
     classical (RSA) ones verify individually below. *)
  let anon = ref [] in
  let plain = ref [] in
  Array.iteri
    (fun i sub ->
      match sub with
      | `Anon (sender, ciphertext, attestation) -> (
        match Cpla.attestation_of_bytes attestation with
        | att ->
          let message = Task_contract.submission_digest sender ciphertext in
          let pi =
            Cpla.public_inputs ~prefix ~message ~root:params.Task_contract.ra_root att
          in
          anon := (i, pi, att.Cpla.proof) :: !anon
        | exception Zebra_codec.Codec.Decode_error _ -> mark i)
      | `Plain (sender, ciphertext, attestation) -> (
        match
          ( Plain_auth.attestation_of_bytes attestation,
            Zebra_rsa.Rsa.public_key_of_bytes params.Task_contract.ra_rsa_pub )
        with
        | att, ra_pub ->
          plain := (i, Task_contract.submission_digest sender ciphertext, att, ra_pub) :: !plain
        | exception Zebra_codec.Codec.Decode_error _ -> mark i))
    submissions;
  let anon = Array.of_list (List.rev !anon) in
  let plain = Array.of_list (List.rev !plain) in
  (* Classical signatures have no shared key to combine under; they verify
     independently, fanned out over the pool (slot-disjoint writes, so the
     verdict is pool-independent). *)
  let plain_ok = Array.make (Array.length plain) false in
  Parallel.parallel_for ~min_chunk:1 (Array.length plain) (fun lo hi ->
      for k = lo to hi - 1 do
        let _, message, att, ra_pub = plain.(k) in
        plain_ok.(k) <- Plain_auth.verify ~ra_pub ~prefix ~message att
      done);
  Array.iteri (fun k (i, _, _, _) -> if not plain_ok.(k) then mark i) plain;
  let n_batches = ref 0 in
  let n_fallbacks = ref 0 in
  (match Zebra_snark.Snark.vk_of_bytes_cached params.Task_contract.auth_vk with
  | vk ->
    (* One random-linear-combination check per block of [batch_size]
       attestations.  The RLC scalar comes from a Fiat–Shamir seed
       ([Snark.batch_seed]: hash of the block's proofs and public inputs,
       tagged with the task address and batch index), never from
       [sys.rng].  Binding the challenge to the proofs is what makes the
       Schwartz–Zippel bound hold against adversarial submissions — a
       challenge predictable before submission (e.g. from the task address
       alone) would let a worker craft residuals that cancel under the
       known weights.  The audit stays deterministic: replaying it from
       the chain recomputes the same hashes, at any ZEBRA_DOMAINS, and
       batching on or off cannot shift the system's shared randomness
       stream. *)
    let base_seed =
      match seed with Some s -> s | None -> "audit/" ^ Address.to_hex task
    in
    let total = Array.length anon in
    let b = ref 0 in
    while !b * batch_size < total do
      let lo = !b * batch_size in
      let len = min batch_size (total - lo) in
      let block = Array.sub anon lo len in
      let items = Array.map (fun (_, pi, proof) -> (pi, proof)) block in
      let rng =
        Source.of_seed
          (Zebra_snark.Snark.batch_seed
             ~tag:(Printf.sprintf "%s#%d" base_seed !b)
             items)
      in
      incr n_batches;
      if not (Zebra_snark.Snark.batch_verify ~rng vk items) then begin
        (* The batch test has one-sided error: a failure proves at least
           one bad proof but not which, so re-verify each member to name
           the offenders exactly. *)
        incr n_fallbacks;
        Array.iter
          (fun (i, pi, proof) ->
            if not (Zebra_snark.Snark.verify vk ~public_inputs:pi proof) then mark i)
          block
      end;
      incr b
    done
  | exception Zebra_codec.Codec.Decode_error _ ->
    (* Malformed contract key: every anonymous attestation fails, exactly
       as per-submission [Cpla.verify_with_vk] would have reported. *)
    Array.iter (fun (i, _, _) -> mark i) anon);
  let offenders = List.sort_uniq compare !bad in
  Obs.Counter.add m_audited count;
  Obs.Counter.add m_batches !n_batches;
  Obs.Counter.add m_fallbacks !n_fallbacks;
  Obs.Counter.add m_offenders (List.length offenders);
  {
    all_valid = offenders = [];
    checked = count;
    batches = !n_batches;
    fallbacks = !n_fallbacks;
    offenders;
  }

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
