(* Layer-attributed benchmark of the ZebraLancer reproduction.

     bash layerbench/run.sh --workload market --seed 1 --seconds 40 --trace 0

   One run boots the system several times (set-up), drives a closed-loop
   marketplace through the public client and chain functions (client
   phase), then replays the chain it produced onto fresh replicas with a
   grown genesis (replay phase), and checks every output.  Each library
   call runs under a [Tracer] span, so time splits into client-side work
   (wallets, requester and worker proving) and chain-side work (admission,
   block production, reads, indexing).  The network delivers instantly and
   one block is mined per loop step: every latency here is computation,
   not network delay.  Untraced runs report it in reference seconds,
   processor seconds corrected for the shared host's speed (Tracer).

   [--trace 0] prints the end-to-end metrics; [--trace 1] switches on
   [Zebra_obs], keeps every span, prints the per-layer metrics and writes
   a Chrome trace to .layerbench-out/.  The last stdout line is the JSON
   result; everything before it is a human-readable report.  See
   layerbench/README.md for the metric definitions and the prediction
   table. *)

open Zebralancer
module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Block = Zebra_chain.Block
module Cpla = Zebra_anonauth.Cpla
module Ra = Zebra_anonauth.Ra
module Source = Zebra_rng.Source
module Sha256 = Zebra_hashing.Sha256
module Indexer = Zebra_index.Indexer
module Parallel = Zebra_parallel.Parallel
module Obs = Zebra_obs.Obs
module Json = Zebra_obs.Json

(* ---------- workloads ---------- *)

type shape = {
  name : string;
  requesters : int;
  workers : int;
  n : int;  (** answers per task *)
  budget : int;
  depth : int;  (** RA tree depth *)
  inflight : int;
  task_rate : float;
  min_tasks : int;
  follower_rate : float;
      (** [task_rate] and [follower_rate] size a run from --seconds:
          round (seconds * client_share * task_rate) tasks and
          round (seconds * follower_rate) followers, so that on a 2-core
          x86 host client work takes about [client_share] of the run *)
}

(* market exists because it is ROADMAP's end-to-end shape
   (Load.default_config: majority, n = 2, budget 60, 4 requesters,
   8 workers, RA depth 6, 3 replicas) with 4 tasks in flight.  Client work
   — wallet keygen and proving on circuits of 2.3-2.9 k constraints — is
   nearly all of its time; chain-side work is its replay phase. *)
let market =
  {
    name = "market";
    requesters = 4;
    workers = 8;
    n = 2;
    budget = 60;
    depth = 6;
    inflight = 4;
    task_rate = 0.2;
    min_tasks = 4;
    follower_rate = 1.0;
  }

(* crowd exists because the same prover runs here on circuits about twice
   as large (CPLA 5 381 and reward-majority-n5 4 651 constraints at RA
   depth 16, a deployment-size registry) and each contract collects five
   submissions and pays five payees, so a prover or contract change tuned
   to one size shows on the other. *)
let crowd =
  {
    name = "crowd";
    requesters = 2;
    workers = 10;
    n = 5;
    budget = 100;
    depth = 16;
    inflight = 2;
    task_rate = 0.125;
    min_tasks = 2;
    follower_rate = 1.2;
  }

let workloads = [ market; crowd ]
let policy = Policy.Majority { choices = 4 }
let num_nodes = 3

(* The replay genesis adds this many funded accounts, stand-ins for the
   one-task wallets of earlier tasks; at this size State.root is about
   half of block production, so root and execution changes both show. *)
let replay_extra_accounts = 1000

(* Share of --seconds the client phase should take; replay takes the rest. *)
let client_share = 0.75

(* Set-up runs this many times per run and setup_s is their median.  One
   set-up lasts under a second, so one burst of host noise can move a
   single timing; the median moves only when three of the five are hit. *)
let setup_repeats = 5

(* Inclusion fees, as in Load: fundings first, then settlements, then
   deployments, then answers (fee 0). *)
let fee_funding = 3
let fee_instruct = 2
let fee_publish = 1

(* ---------- helpers ---------- *)

let fail_fast fmt = Printf.ksprintf (fun s -> prerr_endline ("layerbench: " ^ s); exit 2) fmt
let say fmt = Printf.printf ("# " ^^ fmt ^^ "\n%!")
let mb bytes = bytes /. 1e6

(* One-task wallet number [k] of the client phase draws its RSA key from
   its own stream, independent of --seed.  Prime search makes keygen time
   vary by a factor of ten from key to key, so wallets drawn from the seed
   would spread tasks_per_s between seeds by more than any useful bound;
   with these streams every seed does the same keygen work, and the seed
   still drives identities, task keys, answers, set-up trapdoors and every
   proof's randomness. *)
let wallet_stream k = Source.fn (Source.of_seed (Printf.sprintf "layerbench/wallet/%d" k))

(* The stream a system boots with.  The faucet's and the RA's RSA keys,
   the only draws Protocol.create_system makes, come from one fixed stream
   for the same reason as [wallet_stream]: every set-up then does the same
   keygen work at every seed.  Call [booted] once create_system returns;
   every later draw (identities, task keys, answers, proof randomness)
   comes from the seed's stream. *)
let system_rng ~seed =
  let keys = Source.of_seed "layerbench/system-keys" and live = Source.of_seed seed in
  let booting = ref true in
  let rng = Source.of_fn (fun n -> Source.bytes (if !booting then keys else live) n) in
  (rng, fun () -> booting := false)

let words_mb w = mb (float_of_int (w * (Sys.word_size / 8)))
let top_heap_mb () = words_mb (Gc.quick_stat ()).Gc.top_heap_words

(* Intervals are pairs of Tracer.now readings, turned into seconds with
   Tracer.seconds once the run is over, when every probe has run. *)
type interval = float * float

type ctx = {
  tr : Tracer.t;
  mutable failures : string list;
  mutable submit_rejected : int;
  mutable blocks : int;
  mutable mined_txs : int;
  mutable conflict_retries : int;
  mutable mine_rejected : int;
  mutable index_blocks : int;
  mutable index_events : int;
}

let failure c fmt = Printf.ksprintf (fun s -> c.failures <- s :: c.failures) fmt

let call c track ?parent name f = Tracer.call c.tr ~track ?parent name f
let call_ c track ?parent name f = fst (call c track ?parent name f)

(* Chain calls: admission, block production and receipt reads. *)
let submit_timed c ?parent net tx =
  let r, iv = call c Tracer.Chain ?parent "chain.submit" (fun () -> Network.submit_r net tx) in
  (match r with
  | Ok () -> ()
  | Error e ->
    c.submit_rejected <- c.submit_rejected + 1;
    failure c "submit refused: %s" (Network.submit_error_to_string e));
  (r = Ok (), iv)

let submit c ?parent net tx = fst (submit_timed c ?parent net tx)

let mine c ?parent net =
  let results, iv = call c Tracer.Chain ?parent "chain.mine" (fun () -> Network.mine_ext net) in
  c.blocks <- c.blocks + 1;
  List.iter
    (function
      | Network.Applied _ -> c.mined_txs <- c.mined_txs + 1
      | Network.Conflict_retry _ ->
        c.mined_txs <- c.mined_txs + 1;
        c.conflict_retries <- c.conflict_retries + 1
      | Network.Rejected _ -> c.mine_rejected <- c.mine_rejected + 1)
    results;
  iv

let index_sync c ?parent idx net =
  let events = Indexer.event_count idx in
  let blocks, iv = call c Tracer.Chain ?parent "index.sync" (fun () -> Indexer.sync idx net) in
  c.index_blocks <- c.index_blocks + blocks;
  c.index_events <- c.index_events + Indexer.event_count idx - events;
  iv

let receipt c ?parent net tx =
  call_ c Tracer.Chain ?parent "chain.receipt" (fun () -> Network.receipt net (Tx.hash tx))

(* The benchmark's own collections, between set-ups and between
   followers, so that each starts from a collected heap and none pays for
   sweeping its predecessor's garbage. *)
let collect c ?parent gc = call_ c Tracer.Bench ?parent "gc.collect" gc

(* ---------- set-up ---------- *)

type booted = {
  sys : Protocol.system;
  requester_ids : Protocol.identity array;
  worker_ids : Protocol.identity array;
  circuit : Reward_circuit.t;
  supply0 : int;
}

(* System boot, CPLA and reward trusted set-ups, enrollment of the whole
   population and one RA root post. *)
let setup c shape ~seed ~parent =
  let rng, booted = system_rng ~seed in
  let sys =
    call_ c Tracer.Bench ~parent "setup.create_system" (fun () ->
        Protocol.create_system ~num_nodes ~tree_depth:shape.depth ~rng ~seed ())
  in
  booted ();
  let net = sys.Protocol.net in
  let enroll k =
    Array.init k (fun _ ->
        let key =
          Cpla.keygen_rng ~composition:(Cpla.composition sys.Protocol.cpla) ~rng:sys.Protocol.rng ()
        in
        { Protocol.key; cert_index = Ra.register sys.Protocol.ra key.Cpla.pk })
  in
  let requester_ids, worker_ids =
    call_ c Tracer.Bench ~parent "setup.enroll" (fun () ->
        let r = enroll shape.requesters in
        (r, enroll shape.workers))
  in
  let faucet = sys.Protocol.faucet in
  let root_tx =
    Tx.make ~wallet:faucet
      ~nonce:(Network.nonce net (Wallet.address faucet))
      ~dst:(Tx.Call sys.Protocol.ra_contract) ~value:0
      ~payload:(Ra_contract.set_root_msg (Ra.root sys.Protocol.ra))
  in
  if submit c ~parent net root_tx then ignore (mine c ~parent net : interval);
  (match receipt c ~parent net root_tx with
  | Some { State.status = State.Ok _; _ } -> ()
  | _ -> failure c "RA root post did not apply");
  let circuit =
    call_ c Tracer.Bench ~parent "setup.reward_circuit" (fun () ->
        Reward_circuit.setup_cached sys.Protocol.keycache ~seed:(seed ^ "/reward-circuit") ~policy
          ~n:shape.n)
  in
  { sys; requester_ids; worker_ids; circuit; supply0 = Network.total_supply net }

(* ---------- replay: chain-side work only ---------- *)

(* After the client phase, followers replay the chain it produced.  A
   follower is three fresh replicas whose genesis adds
   [replay_extra_accounts] funded accounts, with an indexer beside it:
   every recorded block's transactions go back through submit_r, one
   mine_ext seals them, and the indexer catches up.  Followers run one at
   a time and are dropped once checked, and the heap is collected before
   the next boots, so the heap never holds more than one and no follower's
   blocks pay for sweeping its predecessor's garbage. *)
type replay = {
  recorded : Network.t;
  genesis : (Address.t * int) list;
  mutable replayed_txs : int;
  mutable mismatches : int;  (** replayed txs whose order or receipt differ *)
  mutable chain : interval list;  (** follower submit_r and mine_ext calls *)
  mutable mined : interval list;  (** follower mine_ext calls *)
  mutable indexing : interval list;
  mutable indexed_txs : int;
  mutable roots : string list;  (** each checked follower's state root *)
}

let extra_accounts ~seed =
  List.init replay_extra_accounts (fun i ->
      let d = Sha256.digest_string (Printf.sprintf "%s/account/%d" seed i) in
      (Address.of_bytes (Bytes.sub d 0 20), 1_000))

let tx_hashes txs = List.map (fun tx -> Sha256.to_hex (Tx.hash tx)) txs

let replay_block c rp ~parent fnet idx (blk : Block.t) =
  List.iter
    (fun tx ->
      let ok, iv = submit_timed c ~parent fnet tx in
      rp.chain <- iv :: rp.chain;
      if not ok then rp.mismatches <- rp.mismatches + 1)
    blk.Block.txs;
  let iv = mine c ~parent fnet in
  rp.chain <- iv :: rp.chain;
  rp.mined <- iv :: rp.mined;
  let n = List.length blk.Block.txs in
  rp.replayed_txs <- rp.replayed_txs + n;
  let height = blk.Block.header.Block.height in
  let sealed = match List.rev (Network.blocks fnet) with b :: _ -> b.Block.txs | [] -> [] in
  if tx_hashes sealed <> tx_hashes blk.Block.txs then begin
    failure c "replay: block %d re-sealed in another order" height;
    rp.mismatches <- rp.mismatches + n
  end
  else
    List.iter
      (fun tx ->
        let h = Tx.hash tx in
        match (Network.receipt fnet h, Network.receipt rp.recorded h) with
        | Some a, Some b when a = b -> ()
        | _ ->
          rp.mismatches <- rp.mismatches + 1;
          failure c "replay: receipt of tx %s in block %d differs"
            (String.sub (Sha256.to_hex h) 0 12) height)
      blk.Block.txs;
  rp.indexing <- index_sync c ~parent idx fnet :: rp.indexing;
  rp.indexed_txs <- rp.indexed_txs + n

(* Boot one follower, replay every recorded block onto it, then check
   that it holds byte-identical task contract storage and that its
   indexer agrees with it. *)
let replay_follower c rp ~parent contracts =
  let fnet =
    call_ c Tracer.Bench ~parent "replay.boot" (fun () ->
        Network.create ~num_nodes ~genesis:rp.genesis ())
  in
  let idx = Indexer.create () in
  List.iter (replay_block c rp ~parent fnet idx) (Network.blocks rp.recorded);
  call_ c Tracer.Bench ~parent "check" (fun () ->
      List.iter
        (fun a ->
          if Network.contract_storage fnet a <> Network.contract_storage rp.recorded a then
            failure c "replay: storage of %s differs" (String.sub (Address.to_hex a) 0 12))
        contracts;
      (match Indexer.check idx fnet with
      | Ok () -> ()
      | Error e -> failure c "replay: indexer disagrees: %s" e);
      rp.roots <- Sha256.to_hex (Network.state_root fnet) :: rp.roots)

let replay_phase c ~seed ~followers recorded contracts =
  let rp =
    {
      recorded;
      genesis = Network.genesis recorded @ extra_accounts ~seed;
      replayed_txs = 0;
      mismatches = 0;
      chain = [];
      mined = [];
      indexing = [];
      indexed_txs = 0;
      roots = [];
    }
  in
  let parent = Tracer.open_group c.tr ~track:Tracer.Phase "replay" in
  for _ = 1 to followers do
    replay_follower c rp ~parent contracts;
    collect c ~parent Gc.full_major
  done;
  Tracer.close_group c.tr parent;
  (match rp.roots with
  | r :: rest when List.exists (( <> ) r) rest ->
    failure c "replay: followers disagree on the state root"
  | _ -> ());
  rp

(* Every address the replayed ledger holds: genesis, senders, call
   targets and created contracts. *)
let ledger_accounts rp contracts =
  let seen = Hashtbl.create 2048 in
  let add a = Hashtbl.replace seen (Address.to_hex a) () in
  List.iter (fun (a, _) -> add a) rp.genesis;
  List.iter
    (fun (blk : Block.t) ->
      List.iter
        (fun (tx : Tx.t) ->
          add tx.Tx.sender;
          match tx.Tx.dst with Tx.Call a -> add a | Tx.Create _ -> ())
        blk.Block.txs)
    (Network.blocks rp.recorded);
  List.iter add contracts;
  Hashtbl.length seen

(* ---------- client phase: closed-loop marketplace ---------- *)

type stage =
  | Ready
  | Wait_fund of Wallet.t * Tx.t
  | Wait_publish of Requester.task * Tx.t
  | Wait_answers of Requester.task * Tx.t list
  | Wait_instruct of Requester.task * Tx.t
  | Settled
  | Task_failed of string

type task = {
  index : int;
  requester : Protocol.identity;
  mutable stage : stage;
  mutable funded_at : float;
  mutable settled_at : float;
  mutable broadcast_height : int;
  mutable wallet : interval;  (** the requester's one-task wallet *)
  mutable own : interval list;  (** this task's own client calls after funding *)
  mutable group : int;
}


type client_result = {
  tasks : task array;
  wall : interval;
  publish : interval list list;
  submit_s : interval list list;
  instruct : interval list;
  settle : interval list;
  wait_blocks : int list;
  contracts : Address.t list;
}

let client_phase c shape b ~tasks:k =
  let sys = b.sys in
  let net = sys.Protocol.net in
  let cpla = sys.Protocol.cpla in
  let ra = sys.Protocol.ra in
  let rb = Protocol.random_bytes sys in
  let n = shape.n in
  let faucet = sys.Protocol.faucet in
  let faucet_nonce = ref (Network.nonce net (Wallet.address faucet)) in
  let clock () = Tracer.now c.tr in
  let wallets = ref 0 in
  let publish = ref [] and submit_s = ref [] and instruct = ref [] in
  let wait_blocks = ref [] and contracts = ref [] in
  let states =
    Array.init k (fun index ->
        {
          index;
          requester = b.requester_ids.(index mod shape.requesters);
          stage = Ready;
          funded_at = 0.;
          settled_at = 0.;
          broadcast_height = 0;
          wallet = (0., 0.);
          own = [];
          group = -1;
        })
  in
  let fail st reason =
    failure c "task %d: %s" st.index reason;
    st.stage <- Task_failed reason;
    Tracer.close_group c.tr st.group
  in
  let client st name f =
    let x, iv = call c (Tracer.Task st.index) ~parent:st.group name f in
    st.own <- iv :: st.own;
    (x, iv)
  in
  let new_wallet st =
    let k = !wallets in
    incr wallets;
    client st "wallet.generate" (fun () -> Wallet.generate ~random_bytes:(wallet_stream k) ())
  in
  let broadcast st txs =
    st.broadcast_height <- Network.height net;
    List.for_all (fun tx -> submit c ~parent:st.group net tx) txs
  in
  let received st r =
    wait_blocks := (Network.height net - st.broadcast_height) :: !wait_blocks;
    r
  in
  let start st =
    st.group <- Tracer.open_group c.tr ~track:(Tracer.Task st.index) "task";
    let wallet, iv = new_wallet st in
    st.wallet <- iv;
    st.own <- [];
    let tx =
      Tx.make_ext ~wallet:faucet ~fee:fee_funding ~footprint:[] ~nonce:!faucet_nonce
        ~dst:(Tx.Call (Wallet.address wallet))
        ~value:(shape.budget + 1) ~payload:Bytes.empty
    in
    incr faucet_nonce;
    st.funded_at <- clock ();
    if broadcast st [ tx ] then st.stage <- Wait_fund (wallet, tx) else fail st "funding refused"
  in
  let publish_task st wallet =
    let id = st.requester in
    let height = Network.height net in
    let (task, tx), iv =
      client st "requester.create_task" (fun () ->
          Requester.create_task ~circuit:b.circuit ~fee:fee_publish ~random_bytes:rb ~cpla
            ~key:id.Protocol.key ~cert_index:id.Protocol.cert_index
            ~ra_path:(Ra.path ra id.Protocol.cert_index) ~ra_root:(Ra.root ra) ~wallet ~nonce:0
            ~policy ~n:shape.n ~budget:shape.budget ~answer_deadline:(height + 20)
            ~instruct_deadline:(height + 60) ())
    in
    publish := [ st.wallet; iv ] :: !publish;
    contracts := task.Requester.contract :: !contracts;
    if broadcast st [ tx ] then st.stage <- Wait_publish (task, tx) else fail st "publish refused"
  in
  let storage st (task : Requester.task) =
    fst
      (client st "client.task_storage" (fun () ->
           Protocol.task_storage sys task.Requester.contract))
  in
  let answer st (task : Requester.task) =
    let storage = storage st task in
    let txs =
      List.init n (fun j ->
          let id = b.worker_ids.(((st.index * n) + j) mod shape.workers) in
          let answer = Char.code (Bytes.get (rb 1) 0) mod 4 in
          let wallet, dw = new_wallet st in
          let tx, ds =
            client st "worker.submit_tx" (fun () ->
                Worker.submit_tx ~random_bytes:rb ~cpla ~storage ~contract:task.Requester.contract
                  ~wallet ~key:id.Protocol.key ~cert_index:id.Protocol.cert_index
                  ~ra_path:(Ra.path ra id.Protocol.cert_index) ~answer ~nonce:0)
          in
          submit_s := [ dw; ds ] :: !submit_s;
          tx)
    in
    if broadcast st txs then st.stage <- Wait_answers (task, txs) else fail st "answers refused"
  in
  let settle st (task : Requester.task) =
    let storage = storage st task in
    let (_rewards, tx), iv =
      client st "requester.instruct" (fun () ->
          Requester.instruct ~fee:fee_instruct ~random_bytes:rb task ~storage ~nonce:1)
    in
    instruct := iv :: !instruct;
    if broadcast st [ tx ] then st.stage <- Wait_instruct (task, tx) else fail st "instruct refused"
  in
  let status st tx = received st (receipt c ~parent:st.group net tx) in
  let advance st =
    match st.stage with
    | Ready | Settled | Task_failed _ -> ()
    | Wait_fund (wallet, tx) -> (
      match status st tx with
      | Some { State.status = State.Ok _; _ } -> publish_task st wallet
      | Some { State.status = State.Failed e; _ } -> fail st ("funding failed: " ^ e)
      | None -> fail st "funding not mined")
    | Wait_publish (task, tx) -> (
      match status st tx with
      | Some { State.status = State.Ok (Some addr); _ }
        when Address.equal addr task.Requester.contract ->
        answer st task
      | Some { State.status = State.Ok _; _ } -> fail st "contract address prediction failed"
      | Some { State.status = State.Failed e; _ } -> fail st ("publish failed: " ^ e)
      | None -> fail st "publish not mined")
    | Wait_answers (task, txs) -> (
      let rs = List.map (status st) txs in
      match
        List.find_map
          (function
            | Some { State.status = State.Failed e; _ } -> Some ("submission failed: " ^ e)
            | None -> Some "submission not mined"
            | Some _ -> None)
          rs
      with
      | Some reason -> fail st reason
      | None -> settle st task)
    | Wait_instruct (_, tx) -> (
      match status st tx with
      | Some { State.status = State.Ok _; _ } ->
        st.settled_at <- clock ();
        st.stage <- Settled;
        Tracer.close_group c.tr st.group
      | Some { State.status = State.Failed e; _ } -> fail st ("instruct failed: " ^ e)
      | None -> fail st "instruct not mined")
  in
  let active () =
    Array.fold_left
      (fun acc st ->
        match st.stage with Ready | Settled | Task_failed _ -> acc | _ -> acc + 1)
      0 states
  in
  let next = ref 0 in
  let t0 = clock () in
  (* Closed loop: a task is funded only while fewer than [inflight] are
     open, so once the window is full a new one starts only when one
     settles.  At most one task starts per block, so tasks are staggered
     and every block mixes the phases of unrelated tasks. *)
  while !next < k || active () > 0 do
    if !next < k && active () < shape.inflight then begin
      start states.(!next);
      incr next
    end;
    ignore (mine c net : interval);
    Array.iter advance states
  done;
  {
    tasks = states;
    wall = (t0, clock ());
    publish = !publish;
    submit_s = !submit_s;
    instruct = !instruct;
    settle =
      Array.to_list states
      |> List.filter_map (fun st ->
             if st.stage = Settled then Some (st.funded_at, st.settled_at) else None);
    wait_blocks = !wait_blocks;
    contracts = List.rev !contracts;
  }

(* ---------- reporting ---------- *)

let metric name unit value = (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])

let latency_line what unit xs =
  let tail =
    match Stats.tail xs with
    | Some (q, v) -> Printf.sprintf ", %s %.4f %s" (Stats.label q) v unit
    | None -> ", no tail (under 100 samples)"
  in
  say "%-9s p50 %.4f %s%s (n=%d)" what (Stats.median xs) unit tail (List.length xs)

(* Zebra_obs's own cost per span with recording switched on, so the traced
   run can report its overhead: spans the library recorded times this
   cost, plus the tracer's measured bookkeeping. *)
let obs_span_cost () =
  let reps = 20_000 in
  let time () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      Obs.with_span "layerbench.calibrate" ignore
    done;
    Unix.gettimeofday () -. t0
  in
  Obs.set_enabled true;
  let on = time () in
  Obs.set_enabled false;
  let off = time () in
  Obs.reset ();
  Float.max 0. ((on -. off) /. float_of_int reps)

let obs_span name = match Obs.span_stats name with Some (n, s) -> (n, s) | None -> (0, 0.)
let obs_counter name = float_of_int (Obs.Counter.value (Obs.Counter.make name))
let ratio a b = if a +. b > 0. then a /. (a +. b) else 0.

type layer = { count : int; busy : float; alloc : float; prove : float }

let layers_of spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s : Tracer.span) ->
      if s.Tracer.layer then begin
        let l =
          Option.value (Hashtbl.find_opt tbl s.Tracer.name)
            ~default:{ count = 0; busy = 0.; alloc = 0.; prove = 0. }
        in
        Hashtbl.replace tbl s.Tracer.name
          {
            count = l.count + 1;
            busy = l.busy +. (s.Tracer.stop -. s.Tracer.start);
            alloc = l.alloc +. s.Tracer.alloc_bytes;
            prove = l.prove +. s.Tracer.prove_s;
          }
      end)
    spans;
  tbl

let write_trace tr ~workload ~seed =
  let dir = ".layerbench-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/trace-%s-%d.json" dir workload seed in
  let oc = open_out path in
  output_string oc (Json.to_string (Tracer.to_chrome tr));
  close_out oc;
  path

let run shape ~seed_n ~seconds ~traced =
  Parallel.set_default_domains 1;
  say "layerbench %s seed=%d seconds=%g trace=%d domains=%d" shape.name seed_n seconds
    (Bool.to_int traced) (Parallel.default_domains ());
  let span_cost = if traced then obs_span_cost () else 0. in
  if traced then begin
    Obs.reset ();
    Obs.set_enabled true
  end;
  let tr = Tracer.create ~traced in
  let c =
    {
      tr;
      failures = [];
      submit_rejected = 0;
      blocks = 0;
      mined_txs = 0;
      conflict_retries = 0;
      mine_rejected = 0;
      index_blocks = 0;
      index_events = 0;
    }
  in
  let alloc_start = Gc.allocated_bytes () in
  let seed = Printf.sprintf "layerbench/%s/%d" shape.name seed_n in
  (* Set-up, [setup_repeats] times: first with the derived seeds S#1 ...,
     each system discarded and the heap compacted so that the repeats do
     not stack up, then with S itself, the system measured.  setup_s is
     the median of all of them. *)
  let g = Tracer.open_group tr ~track:Tracer.Phase "setup" in
  let setups = ref [] in
  let timed s =
    let t0 = Tracer.now tr in
    let b = setup c shape ~seed:s ~parent:g in
    setups := (t0, Tracer.now tr) :: !setups;
    b
  in
  for i = 1 to setup_repeats - 1 do
    ignore (timed (Printf.sprintf "%s#%d" seed i) : booted);
    collect c ~parent:g Gc.compact
  done;
  let b = timed seed in
  Tracer.close_group tr g;
  let net = b.sys.Protocol.net in
  let tasks =
    max shape.min_tasks (int_of_float (Float.round (seconds *. client_share *. shape.task_rate)))
  in
  let followers = max 2 (int_of_float (Float.round (seconds *. shape.follower_rate))) in
  let heap_setup = top_heap_mb () in
  (* Start the timed phase from a compacted heap, whatever set-up left. *)
  collect c Gc.compact;
  let a0 = Gc.allocated_bytes () in
  let g = Tracer.open_group tr ~track:Tracer.Phase "client" in
  let cr = client_phase c shape b ~tasks in
  Tracer.close_group tr g;
  (* heap_live_mb is what the marketplace holds once its garbage is gone
     (replicas, key caches, client state), taken before any follower
     boots.  The high-water mark is printed but not gated: it follows the
     collector's schedule and moves by up to a quarter from seed to seed. *)
  let heap_peak_mb = top_heap_mb () in
  collect c Gc.full_major;
  let heap_live_mb = words_mb (Gc.quick_stat ()).Gc.live_words in
  let replay0 = Tracer.now tr in
  let rp = replay_phase c ~seed ~followers net cr.contracts in
  let replay = (replay0, Tracer.now tr) in
  let timed_alloc = Gc.allocated_bytes () -. a0 in
  let g = Tracer.open_group tr ~track:Tracer.Phase "check" in
  let settled =
    Array.fold_left (fun acc st -> if st.stage = Settled then acc + 1 else acc) 0 cr.tasks
  in
  let replicas_agree, supply_conserved, indexer_agrees =
    call_ c Tracer.Bench ~parent:g "check" (fun () ->
        let root0 = Network.node_state_root net 0 in
        let agree =
          List.for_all
            (fun i -> Bytes.equal (Network.node_state_root net i) root0)
            (List.init (Network.num_nodes net) Fun.id)
        in
        let idx = Indexer.create () in
        ignore (Indexer.sync idx net : int);
        (agree, Network.total_supply net = b.supply0, Indexer.agrees idx net))
  in
  if settled < tasks then failure c "%d of %d tasks settled" settled tasks;
  if not replicas_agree then failure c "replicas disagree";
  if not supply_conserved then failure c "supply not conserved";
  if not indexer_agrees then failure c "indexer disagrees with the chain";
  Tracer.close_group tr g;
  let run_iv = (0., Tracer.now tr) in
  Tracer.stop tr;
  let alloc_mb = mb (Gc.allocated_bytes () -. alloc_start) in
  let sec = Tracer.seconds tr in
  let total ivs = List.fold_left (fun acc iv -> acc +. sec iv) 0. ivs in
  let wall = sec run_iv in
  let setup_times = List.rev_map sec !setups in
  let client_s = sec cr.wall in
  let block_ms = List.map (fun iv -> 1000. *. sec iv) rp.mined in
  let chain_s = total rp.chain and index_s = total rp.indexing in
  let settle = List.map sec cr.settle in
  let instruct = List.map sec cr.instruct in
  say "heap: top %.3f MB after set-up, %.3f MB after the client phase, %.3f MB at exit; \
       live %.3f MB after the client phase"
    heap_setup heap_peak_mb (top_heap_mb ()) heap_live_mb;
  let failed = tasks - settled + rp.mismatches in
  let correct = c.failures = [] && failed = 0 in
  (* A failed task misses every latency. *)
  let missing xs = xs @ List.init (tasks - settled) (fun _ -> infinity) in
  say "facts: tasks=%d settled=%d blocks=%d txs=%d proofs=%d cpla_constraints=%d \
       reward_constraints=%d"
    tasks settled (Network.height net)
    (List.fold_left
       (fun acc (bl : Block.t) -> acc + List.length bl.Block.txs)
       0 (Network.blocks net))
    (List.length cr.publish + List.length cr.submit_s + List.length cr.instruct)
    (Cpla.circuit_size b.sys.Protocol.cpla)
    (Reward_circuit.num_constraints b.circuit);
  say "facts: state_root=%s timed_alloc_mb=%.6f" (Sha256.to_hex (Network.state_root net))
    (mb timed_alloc);
  let accounts = ledger_accounts rp cr.contracts in
  say "facts: followers=%d replayed_blocks=%d replayed_txs=%d accounts=%d replay_root=%s"
    followers (List.length rp.mined) rp.replayed_txs accounts
    (match rp.roots with r :: _ -> r | [] -> "");
  say "setup: %s s (median %.4f)"
    (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times))
    (Stats.median setup_times);
  if traced then
    say "phases (wall s): client %.3f, replay %.3f, whole run %.3f" client_s (sec replay) wall
  else begin
    let processor (a, b) = b -. a in
    let ks = List.map snd (Tracer.probes tr) in
    say "phases (reference s / processor s): client %.3f / %.3f, replay %.3f / %.3f, \
         whole run %.3f / %.3f"
      client_s (processor cr.wall) (sec replay) (processor replay) wall (processor run_iv);
    say "host-speed probes: %d, median %.3f ms, p10 %.3f ms, p90 %.3f ms (reference %.3f ms)"
      (List.length ks) (1000. *. Stats.median ks)
      (1000. *. Stats.percentile 0.1 ks) (1000. *. Stats.percentile 0.9 ks)
      (1000. *. Tracer.probe_nominal_s)
  end;
  let publish = List.map total cr.publish and submit = List.map total cr.submit_s in
  latency_line "settle" "s" (missing settle);
  latency_line "publish" "s" (missing publish);
  latency_line "submit" "s" (missing submit);
  latency_line "instruct" "s" (missing instruct);
  latency_line "block" "ms" block_ms;
  say "checks: settled %d/%d, replicas agree %b, supply conserved %b, indexer agrees %b, \
       replay mismatches %d"
    settled tasks replicas_agree supply_conserved indexer_agrees rp.mismatches;
  List.iter (fun f -> say "FAILED: %s" f) (List.rev c.failures);
  let metrics =
    if not traced then
      [
        metric "setup_s" "s" (Stats.median setup_times);
        metric "tasks_per_s" "tasks/s" (float_of_int settled /. client_s);
        metric "settle_p50_s" "s" (Stats.median (missing settle));
        metric "publish_p50_s" "s" (Stats.median (missing publish));
        metric "submit_p50_s" "s" (Stats.median (missing submit));
        metric "instruct_p50_s" "s" (Stats.median (missing instruct));
        metric "chain_txs_per_s" "txs/s" (float_of_int rp.replayed_txs /. chain_s);
        metric "block_p50_ms" "ms" (Stats.median block_ms);
        metric "block_p90_ms" "ms" (Stats.percentile 0.9 block_ms);
        metric "index_txs_per_s" "txs/s" (float_of_int rp.indexed_txs /. index_s);
        metric "heap_live_mb" "MB" heap_live_mb;
      ]
    else begin
      let layers = layers_of (Tracer.spans tr) in
      let layer name =
        Option.value (Hashtbl.find_opt layers name)
          ~default:{ count = 0; busy = 0.; alloc = 0.; prove = 0. }
      in
      let attributed = Hashtbl.fold (fun _ l acc -> acc +. l.busy) layers 0. in
      let unattributed = wall -. attributed in
      let obs_spans =
        List.fold_left (fun acc name -> acc + fst (obs_span name)) 0 (Obs.span_names ())
      in
      let overhead = Tracer.bookkeeping_s tr +. (float_of_int obs_spans *. span_cost) in
      say "layers (whole run, %.3f s wall):" wall;
      Hashtbl.fold (fun name l acc -> (name, l) :: acc) layers []
      |> List.sort (fun (_, a) (_, b) -> Float.compare b.busy a.busy)
      |> List.iter (fun (name, l) ->
             say "  %-22s %6d calls %9.4f s %5.1f %%" name l.count l.busy (100. *. l.busy /. wall));
      say "  %-22s %6s       %9.4f s %5.1f %%" "unattributed" "" unattributed
        (100. *. unattributed /. wall);
      say "trace: %s" (write_trace tr ~workload:shape.name ~seed:seed_n);
      let calls name =
        let l = layer name in
        [
          metric (name ^ ".count") "count" (float_of_int l.count);
          metric (name ^ ".busy_s") "s" l.busy;
        ]
      in
      let client name =
        let l = layer name in
        calls name
        @ [
            metric (name ^ ".self_s") "s" (l.busy -. l.prove);
            metric (name ^ ".alloc_mb") "MB" (mb l.alloc);
          ]
      in
      let obs name =
        let n, s = obs_span name in
        [ metric (name ^ ".count") "count" (float_of_int n); metric (name ^ ".busy_s") "s" s ]
      in
      let obs_busy name = metric (name ^ ".busy_s") "s" (snd (obs_span name)) in
      let settled_tasks = List.filter (fun st -> st.stage = Settled) (Array.to_list cr.tasks) in
      calls "wallet.generate"
      @ [ metric "wallet.generate.alloc_mb" "MB" (mb (layer "wallet.generate").alloc) ]
      @ client "requester.create_task"
      @ client "worker.submit_tx"
      @ client "requester.instruct"
      @ obs "snark.prove"
      @ [
          obs_busy "snark.prove.fft";
          obs_busy "snark.prove.eval";
          obs_busy "snark.prove.exp";
          metric "circuit.cpla.constraints" "count"
            (float_of_int (Cpla.circuit_size b.sys.Protocol.cpla));
          metric "circuit.reward.constraints" "count"
            (float_of_int (Reward_circuit.num_constraints b.circuit));
        ]
      @ obs "snark.setup"
      @ [
          metric "snark.keycache.hit_ratio" "ratio"
            (ratio (obs_counter "snark.cache.hits") (obs_counter "snark.cache.misses"));
          metric "snark.vk_cache.hit_ratio" "ratio"
            (ratio (obs_counter "snark.cache.vk.hits") (obs_counter "snark.cache.vk.decodes"));
        ]
      @ calls "chain.submit"
      @ [ metric "chain.submit.rejected" "count" (float_of_int c.submit_rejected) ]
      @ calls "chain.mine"
      @ [
          metric "chain.mine.txs_per_block" "txs/block"
            (float_of_int c.mined_txs /. float_of_int (max 1 c.blocks));
          metric "chain.mine.conflict_retries" "count" (float_of_int c.conflict_retries);
          metric "chain.mine.rejected" "count" (float_of_int c.mine_rejected);
          obs_busy "chain.mine.exec";
          obs_busy "chain.state.exec";
          obs_busy "chain.mine.consensus";
          metric "chain.exec.waves_per_block" "waves/block"
            (Obs.Histogram.mean (Obs.Histogram.make "chain.exec.waves_per_block"));
          metric "chain.exec.serial_fallbacks" "count" (obs_counter "chain.exec.serial_fallbacks");
        ]
      @ obs "snark.verify"
      @ [ metric "state.accounts" "count" (float_of_int accounts) ]
      @ calls "chain.receipt"
      @ calls "client.task_storage"
      @ [
          metric "chain.wait_blocks" "blocks"
            (Stats.median (List.map float_of_int cr.wait_blocks));
          metric "settle.wait_share" "ratio"
            (Stats.median
               (List.map
                  (fun st -> 1. -. (total st.own /. sec (st.funded_at, st.settled_at)))
                  settled_tasks));
        ]
      @ calls "index.sync"
      @ [
          metric "index.sync.blocks" "count" (float_of_int c.index_blocks);
          metric "index.sync.events" "count" (float_of_int c.index_events);
          metric "setup.create_system.busy_s" "s" (layer "setup.create_system").busy;
          metric "setup.enroll.busy_s" "s" (layer "setup.enroll").busy;
          metric "setup.reward_circuit.busy_s" "s" (layer "setup.reward_circuit").busy;
          metric "replay.boot.busy_s" "s" (layer "replay.boot").busy;
          metric "check.busy_s" "s" (layer "check").busy;
          metric "gc.collect.busy_s" "s" (layer "gc.collect").busy;
          metric "gc.alloc_mb" "MB" alloc_mb;
          metric "gc.heap_peak_mb" "MB" heap_peak_mb;
          metric "trace.wall_s" "s" wall;
          metric "unattributed_s" "s" unattributed;
          metric "trace.overhead_ratio" "ratio" (overhead /. (wall -. overhead));
        ]
    end
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (tasks + rp.replayed_txs)));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj metrics);
          ]))

(* ---------- command line ---------- *)

let usage =
  "usage: main.exe --workload market|crowd --seed N --seconds S --trace 0|1"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> fail_fast "%s" usage
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> fail_fast "%s" usage in
  let int key =
    match int_of_string_opt (get key) with
    | Some v -> v
    | None -> fail_fast "--%s: not an integer" key
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then fail_fast "%s" usage)
    opts;
  let shape =
    match List.find_opt (fun s -> s.name = get "workload") workloads with
    | Some s -> s
    | None -> fail_fast "unknown workload %S (market, crowd)" (get "workload")
  in
  let seconds = int "seconds" in
  if seconds < 1 then fail_fast "--seconds must be at least 1";
  let traced =
    match int "trace" with 0 -> false | 1 -> true | _ -> fail_fast "--trace takes 0 or 1"
  in
  run shape ~seed_n:(int "seed") ~seconds:(float_of_int seconds) ~traced
