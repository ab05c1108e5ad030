module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Block = Zebra_chain.Block
module Sha256 = Zebra_hashing.Sha256
module Obs = Zebra_obs.Obs

(* Fee tiers: every block of a loaded marketplace mixes phases, so giving
   each phase a distinct priority exercises the fee-ordered mempool on
   every seal (fundings first, then settlements, then deployments, then
   answer submissions). *)
let fee_funding = 3
let fee_instruct = 2
let fee_publish = 1
(* submissions ride at the default fee 0 *)

let h_settle = Obs.Histogram.make "load.settle"
let m_completed = Obs.Counter.make "load.tasks.completed"
let m_failed = Obs.Counter.make "load.tasks.failed"

type config = {
  requesters : int;
  workers : int;
  tasks : int;
  workers_per_task : int;
  inflight : int;
  budget : int;
  num_nodes : int;
  seed : string;
  verify_replay : bool;
}

let default_config =
  {
    requesters = 4;
    workers = 8;
    tasks = 20;
    workers_per_task = 2;
    inflight = 8;
    budget = 60;
    num_nodes = 3;
    seed = "zebra-load";
    verify_replay = false;
  }

type report = {
  tasks_completed : int;
  tasks_failed : int;
  failures : (int * string) list;
  blocks : int;
  txs : int;
  conflict_retries : int;
  elapsed_s : float;
  tasks_per_sec : float;
  txs_per_sec : float;
  settle_p50_s : float;
  settle_p99_s : float;
  state_root : string;
  replicas_agree : bool;
  supply_conserved : bool;
  replay_matches : bool option;
  indexer_agrees : bool;
}

(* One marketplace task moving through its pipeline.  Each stage holds the
   transactions whose receipts gate the next stage; one block is mined per
   scheduler round, so tasks in different stages share every block. *)
type stage =
  | Ready
  | Wait_fund of Wallet.t * Tx.t
  | Wait_publish of Requester.task * Tx.t
  | Wait_answers of Requester.task * Tx.t list
  | Wait_instruct of Requester.task * Tx.t
  | Completed of float
  | Task_failed of string

type task_state = {
  index : int;
  requester : Protocol.identity;
  mutable stage : stage;
  mutable started : float;
  mutable attempts : int;
}

let now () = Unix.gettimeofday ()

let run ?(config = default_config) () =
  let cfg = config in
  if cfg.tasks < 1 then invalid_arg "Load.run: tasks must be >= 1";
  if cfg.requesters < 1 || cfg.workers < 1 then
    invalid_arg "Load.run: need at least one requester and one worker";
  if cfg.workers_per_task < 1 || cfg.workers_per_task > cfg.workers then
    invalid_arg "Load.run: workers_per_task out of range";
  if cfg.inflight < 1 then invalid_arg "Load.run: inflight must be >= 1";
  let sys = Protocol.create_system ~num_nodes:cfg.num_nodes ~seed:cfg.seed () in
  let net = sys.Protocol.net in
  let supply0 = Network.total_supply net in
  let policy = Policy.Majority { choices = 4 } in
  let n = cfg.workers_per_task in
  (* Register the whole population first, then post the RA root once —
     one tree update instead of one per enrollment.  Certificate paths
     are taken after the last registration, against the final root. *)
  let requester_ids = Array.init cfg.requesters (fun _ -> Protocol.register sys) in
  let worker_ids = Array.init cfg.workers (fun _ -> Protocol.register sys) in
  Protocol.get_ok (Protocol.post_root_r sys);
  let circuit = Protocol.reward_circuit sys ~policy ~n in
  let states =
    Array.init cfg.tasks (fun index ->
        {
          index;
          requester = requester_ids.(index mod cfg.requesters);
          stage = Ready;
          started = 0.;
          attempts = 0;
        })
  in
  let faucet_nonce = ref (Network.nonce net (Wallet.address sys.Protocol.faucet)) in
  let conflict_retries = ref 0 in
  let submit tx =
    match Network.submit_r net tx with
    | Ok () -> ()
    | Error e -> failwith ("Load.run: " ^ Network.submit_error_to_string e)
  in
  let fail st reason =
    st.stage <- Task_failed reason;
    Obs.Counter.incr m_failed
  in
  (* Missing receipts cannot happen on this fault-free network unless
     something is broken; still, rebroadcast a bounded number of times
     rather than loop forever. *)
  let retry st what resubmit =
    st.attempts <- st.attempts + 1;
    if st.attempts > 3 then fail st (what ^ " not mined after 3 broadcasts")
    else resubmit ()
  in
  let receipt tx = Network.receipt net (Tx.hash tx) in
  let active () =
    Array.fold_left
      (fun acc st ->
        match st.stage with
        | Ready | Completed _ | Task_failed _ -> acc
        | _ -> acc + 1)
      0 states
  in
  let unfinished () =
    Array.exists
      (fun st -> match st.stage with Completed _ | Task_failed _ -> false | _ -> true)
      states
  in
  let start_task st =
    let wallet = Protocol.fresh_wallet sys in
    let tx =
      Protocol.funding_tx ~fee:fee_funding ~nonce:!faucet_nonce sys wallet
        ~amount:(cfg.budget + 1)
    in
    incr faucet_nonce;
    submit tx;
    st.started <- now ();
    st.attempts <- 0;
    st.stage <- Wait_fund (wallet, tx)
  in
  let publish st wallet =
    let task, tx =
      Protocol.publish_tx sys ~requester:st.requester ~wallet ~policy ~n ~budget:cfg.budget
        ~circuit ~fee:fee_publish ()
    in
    submit tx;
    st.attempts <- 0;
    st.stage <- Wait_publish (task, tx)
  in
  (* Load's workers answer from unfunded one-task wallets: submissions
     carry no value and ride at fee 0. *)
  let answer_txs st (task : Requester.task) =
    let storage = Protocol.task_storage sys task.Requester.contract in
    List.init n (fun j ->
        let wallet = Protocol.fresh_wallet sys in
        Protocol.answer_tx sys ~storage ~task:task.Requester.contract ~wallet
          worker_ids.(((st.index * n) + j) mod cfg.workers)
          ~answer:(st.index mod 4))
  in
  let instruct st task =
    let _rewards, tx = Protocol.instruct_tx ~fee:fee_instruct sys task in
    submit tx;
    st.attempts <- 0;
    st.stage <- Wait_instruct (task, tx)
  in
  let advance st =
    match st.stage with
    | Ready | Completed _ | Task_failed _ -> ()
    | Wait_fund (wallet, tx) -> (
      match receipt tx with
      | Some { State.status = State.Ok _; _ } -> publish st wallet
      | Some { State.status = State.Failed e; _ } -> fail st ("funding failed: " ^ e)
      | None -> retry st "funding" (fun () -> submit tx))
    | Wait_publish (task, tx) -> (
      match receipt tx with
      | Some { State.status = State.Ok (Some addr); _ }
        when Address.equal addr task.Requester.contract ->
        let txs = answer_txs st task in
        List.iter submit txs;
        st.attempts <- 0;
        st.stage <- Wait_answers (task, txs)
      | Some { State.status = State.Ok _; _ } ->
        fail st "publish: contract address prediction failed"
      | Some { State.status = State.Failed e; _ } -> fail st ("publish failed: " ^ e)
      | None -> retry st "publish" (fun () -> submit tx))
    | Wait_answers (task, txs) -> (
      let rs = List.map receipt txs in
      match
        List.find_opt
          (function Some { State.status = State.Failed _; _ } -> true | _ -> false)
          rs
      with
      | Some (Some { State.status = State.Failed e; _ }) ->
        fail st ("submission failed: " ^ e)
      | _ ->
        if List.for_all Option.is_some rs then instruct st task
        else
          retry st "submissions" (fun () ->
              List.iter2
                (fun tx r -> if r = None then submit tx)
                txs rs))
    | Wait_instruct (_, tx) -> (
      match receipt tx with
      | Some { State.status = State.Ok _; _ } ->
        let dt = now () -. st.started in
        Obs.Histogram.observe h_settle dt;
        Obs.Counter.incr m_completed;
        st.stage <- Completed dt
      | Some { State.status = State.Failed e; _ } -> fail st ("instruct failed: " ^ e)
      | None -> retry st "instruct" (fun () -> submit tx))
  in
  let t0 = now () in
  while unfinished () do
    (* Admit new tasks up to the in-flight window, mine one block, then
       advance every pipeline on its receipts. *)
    Array.iter
      (fun st -> if st.stage = Ready && active () < cfg.inflight then start_task st)
      states;
    let results = Network.mine_ext net in
    List.iter
      (function Network.Conflict_retry _ -> incr conflict_retries | _ -> ())
      results;
    Array.iter advance states
  done;
  let elapsed = now () -. t0 in
  let latencies =
    Array.to_list states
    |> List.filter_map (fun st -> match st.stage with Completed dt -> Some dt | _ -> None)
  in
  let completed = List.length latencies in
  let failures =
    Array.to_list states
    |> List.filter_map (fun st ->
           match st.stage with Task_failed e -> Some (st.index, e) | _ -> None)
  in
  let txs =
    List.fold_left (fun acc (b : Block.t) -> acc + List.length b.Block.txs) 0
      (Network.blocks net)
  in
  let replicas_agree =
    let root0 = Network.node_state_root net 0 in
    let agree = ref true in
    for i = 1 to cfg.num_nodes - 1 do
      if not (Bytes.equal (Network.node_state_root net i) root0) then agree := false
    done;
    !agree
  in
  let replay_matches =
    if cfg.verify_replay then
      Some (Bytes.equal (Network.replay net) (Network.state_root net))
    else None
  in
  (* The off-chain indexer rebuilds every contract purely from chain
     events; after a full marketplace run its mirror must be
     byte-identical to the chain (the read-path consistency oracle). *)
  let indexer_agrees =
    let idx = Zebra_index.Indexer.create () in
    ignore (Zebra_index.Indexer.sync idx net);
    Zebra_index.Indexer.agrees idx net
  in
  (* Nearest-rank percentiles over the exact settle latencies: the
     log-2 [load.settle] histogram is too coarse to report them. *)
  let pctile q =
    match List.sort compare latencies with
    | [] -> nan
    | sorted ->
      let arr = Array.of_list sorted in
      let rank = int_of_float (Float.ceil (q *. float_of_int (Array.length arr))) in
      arr.(max 0 (min (Array.length arr - 1) (rank - 1)))
  in
  {
    tasks_completed = completed;
    tasks_failed = List.length failures;
    failures;
    blocks = Network.height net;
    txs;
    conflict_retries = !conflict_retries;
    elapsed_s = elapsed;
    tasks_per_sec = (if elapsed > 0. then float_of_int completed /. elapsed else 0.);
    txs_per_sec = (if elapsed > 0. then float_of_int txs /. elapsed else 0.);
    settle_p50_s = pctile 0.5;
    settle_p99_s = pctile 0.99;
    state_root = Sha256.to_hex (Network.state_root net);
    replicas_agree;
    supply_conserved = Network.total_supply net = supply0;
    replay_matches;
    indexer_agrees;
  }

(* Deterministic facts only — what the CI gate diffs across ZEBRA_DOMAINS
   settings.  Timing lines live in [render_timing]. *)
let render_deterministic r =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "tasks completed: %d\n" r.tasks_completed);
  Buffer.add_string b (Printf.sprintf "tasks failed: %d\n" r.tasks_failed);
  List.iter
    (fun (i, e) -> Buffer.add_string b (Printf.sprintf "  task %d: %s\n" i e))
    r.failures;
  Buffer.add_string b (Printf.sprintf "blocks: %d\n" r.blocks);
  Buffer.add_string b (Printf.sprintf "txs: %d\n" r.txs);
  Buffer.add_string b (Printf.sprintf "conflict retries: %d\n" r.conflict_retries);
  Buffer.add_string b (Printf.sprintf "state root: %s\n" r.state_root);
  Buffer.add_string b (Printf.sprintf "replicas agree: %b\n" r.replicas_agree);
  Buffer.add_string b (Printf.sprintf "supply conserved: %b\n" r.supply_conserved);
  (match r.replay_matches with
  | Some ok -> Buffer.add_string b (Printf.sprintf "serial replay matches: %b\n" ok)
  | None -> ());
  Buffer.add_string b (Printf.sprintf "indexer agrees: %b\n" r.indexer_agrees);
  Buffer.contents b

let render_timing r =
  let b = Buffer.create 128 in
  Buffer.add_string b (Printf.sprintf "# elapsed: %.2f s\n" r.elapsed_s);
  Buffer.add_string b (Printf.sprintf "# tasks/sec: %.3f\n" r.tasks_per_sec);
  Buffer.add_string b (Printf.sprintf "# txs/sec: %.3f\n" r.txs_per_sec);
  Buffer.add_string b (Printf.sprintf "# settle p50: %.3f s\n" r.settle_p50_s);
  Buffer.add_string b (Printf.sprintf "# settle p99: %.3f s\n" r.settle_p99_s);
  Buffer.contents b

let ok r = r.tasks_failed = 0 && r.replicas_agree && r.supply_conserved
           && r.replay_matches <> Some false && r.indexer_agrees
