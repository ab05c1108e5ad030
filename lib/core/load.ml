module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
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
  seed : string;
}

let default_config =
  {
    requesters = 4;
    workers = 8;
    tasks = 20;
    workers_per_task = 2;
    inflight = 8;
    budget = 60;
    seed = "zebra-load";
  }

type report = {
  tasks_completed : int;
  tasks_failed : int;
  failures : (int * string) list;
  blocks : int;
  txs : int;
  elapsed_s : float;
  tasks_per_sec : float;
  txs_per_sec : float;
  settle_p50_s : float;
  settle_p99_s : float;
  state_root : string;
  replicas_agree : bool;
  supply_conserved : bool;
  replay_matches : bool;
  indexer_agrees : bool;
}

(* One marketplace task moving through its pipeline.  Each stage holds the
   task's Protocol phase in flight; one block is mined per scheduler
   round and every phase is polled after it, so tasks in different stages
   share every block. *)
type stage =
  | Ready
  | Funding of Wallet.t Protocol.phase
  | Publishing of Requester.task Protocol.phase
  | Answering of Requester.task * Wallet.t list Protocol.phase
  | Instructing of int array Protocol.phase
  | Completed of float
  | Task_failed of string

type task_state = {
  index : int;
  requester : Protocol.identity;
  mutable stage : stage;
  mutable started : float;
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
  let sys = Protocol.create_system ~seed:cfg.seed () in
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
  (* Warm the reward-circuit memo here, so its trusted setup stays out of
     [elapsed_s]. *)
  ignore (Protocol.reward_circuit sys ~policy ~n);
  let states =
    Array.init cfg.tasks (fun index ->
        { index; requester = requester_ids.(index mod cfg.requesters); stage = Ready; started = 0. })
  in
  let faucet_nonce = ref (Network.nonce net (Wallet.address sys.Protocol.faucet)) in
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
    st.stage <-
      Funding
        (Protocol.funding ~fee:fee_funding ~nonce:!faucet_nonce sys (Protocol.fresh_wallet sys)
           ~amount:(cfg.budget + 1));
    incr faucet_nonce;
    st.started <- now ()
  in
  let failed e =
    Obs.Counter.incr m_failed;
    Task_failed (Protocol.error_to_string e)
  in
  (* A builder's typed rejection fails the task; a phase starts the next
     stage. *)
  let start stage = function Ok p -> stage p | Error e -> failed e in
  (* Submissions carry no value and ride at fee 0. *)
  let answer st (task : Requester.task) =
    let workers =
      List.init n (fun j -> (worker_ids.(((st.index * n) + j) mod cfg.workers), st.index mod 4))
    in
    start
      (fun p -> Answering (task, p))
      (Protocol.answers sys ~task:task.Requester.contract
         ~wallet:(fun _ -> Protocol.fresh_wallet sys)
         workers)
  in
  let complete st =
    let dt = now () -. st.started in
    Obs.Histogram.observe h_settle dt;
    Obs.Counter.incr m_completed;
    Completed dt
  in
  (* A settled phase starts the task's next one. *)
  let advance st =
    let step phase next =
      match Protocol.poll sys phase with
      | None -> ()
      | Some (Ok v) -> st.stage <- next v
      | Some (Error e) -> st.stage <- failed e
    in
    match st.stage with
    | Ready | Completed _ | Task_failed _ -> ()
    | Funding p ->
      step p (fun wallet ->
          Publishing
            (Protocol.publish sys ~requester:st.requester ~wallet ~policy ~n ~budget:cfg.budget
               ~fee:fee_publish ()))
    | Publishing p -> step p (answer st)
    | Answering (task, p) ->
      step p (fun _ ->
          start (fun p -> Instructing p) (Protocol.instruct ~fee:fee_instruct sys task))
    | Instructing p -> step p (fun _ -> complete st)
  in
  let t0 = now () in
  while unfinished () do
    (* Admit new tasks up to the in-flight window, mine one block, then
       poll every task's phase in flight. *)
    Array.iter
      (fun st ->
        (* a match, not [=]: stages hold phases, which hold closures *)
        match st.stage with Ready when active () < cfg.inflight -> start_task st | _ -> ())
      states;
    ignore (Network.mine_ext net);
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
    for i = 1 to Network.num_nodes net - 1 do
      if not (Bytes.equal (Network.node_state_root net i) root0) then agree := false
    done;
    !agree
  in
  (* Re-execute the whole chain from genesis: the replay must reach the
     root the sealing replicas did. *)
  let replay_matches = Bytes.equal (Network.replay net) (Network.state_root net) in
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
  Buffer.add_string b (Printf.sprintf "state root: %s\n" r.state_root);
  Buffer.add_string b (Printf.sprintf "replicas agree: %b\n" r.replicas_agree);
  Buffer.add_string b (Printf.sprintf "supply conserved: %b\n" r.supply_conserved);
  Buffer.add_string b (Printf.sprintf "serial replay matches: %b\n" r.replay_matches);
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

let ok r =
  r.tasks_failed = 0 && r.replicas_agree && r.supply_conserved && r.replay_matches
  && r.indexer_agrees
