module Sha256 = Zebra_hashing.Sha256
module Obs = Zebra_obs.Obs

exception Consensus_failure of string

(* Metrics (all no-ops until [Obs.set_enabled true]). *)
let m_submitted = Obs.Counter.make "chain.submitted"
let m_blocks = Obs.Counter.make "chain.blocks"
let m_txs = Obs.Counter.make "chain.txs"
let m_mempool_depth = Obs.Gauge.make "chain.mempool.depth"
let m_txs_per_block = Obs.Histogram.make "chain.mine.txs_per_block"

(* Execution is one serial fold, so a non-empty block runs as one wave;
   layerbench's per-layer report still reads this histogram's mean. *)
let m_waves = Obs.Histogram.make "chain.exec.waves_per_block"

type node = {
  id : int;
  mutable state : State.t;
  mutable up : bool;
  mutable head : bytes;  (** hash of the last block executed on [state] *)
}

type mempool_fault = height:int -> Tx.t list -> Tx.t list * (int * Tx.t) list

(* An active partition.  The minority side is cut off from the mempool, so
   its branch off the last common block could hold only empty blocks, and
   an empty block changes no state: the minority executes nothing and the
   heal builds its branch from [p_ticks].  Both sides extend by one block
   per tick, so the fork-choice tie-break decides the winner. *)
type partition_state = {
  p_minority : int list;  (* node ids on the minority side; never node 0 *)
  p_fork_height : int;  (* height of the last common block *)
  mutable p_ticks : int;  (* ticks with a minority replica up *)
}

type t = {
  genesis : (Address.t * int) list;
  nodes : node array;
  mutable mempool : Tx.t list; (* reversed arrival order *)
  mutable adversary : (Tx.t list -> Tx.t list) option;
  mutable fault : mempool_fault option;
  mutable delayed : (int * Tx.t) list; (* (release_height, tx), oldest first *)
  mutable block_hook : (height:int -> unit) option;
  mutable chain : Block.t list; (* newest first *)
  mutable partition : partition_state option;
  receipts : (string, State.receipt) Hashtbl.t;
  mutable logs : string list; (* reversed *)
}

let create ~num_nodes ~genesis () =
  if num_nodes < 1 then invalid_arg "Network.create: need at least one node";
  {
    genesis;
    nodes =
      Array.init num_nodes (fun id ->
          { id; state = State.create ~genesis; up = true; head = Block.genesis_hash });
    mempool = [];
    adversary = None;
    fault = None;
    delayed = [];
    block_hook = None;
    chain = [];
    partition = None;
    receipts = Hashtbl.create 64;
    logs = [];
  }

let num_nodes t = Array.length t.nodes

let height t = match t.chain with [] -> 0 | b :: _ -> b.Block.header.Block.height

type submit_error = Invalid_signature

let submit_error_to_string = function
  | Invalid_signature -> "invalid transaction signature"

let submit_r t tx =
  if not (Tx.validate tx) then Error Invalid_signature
  else begin
    t.mempool <- tx :: t.mempool;
    Obs.Counter.incr m_submitted;
    Obs.Gauge.set m_mempool_depth (float_of_int (List.length t.mempool));
    Ok ()
  end

let submit t tx =
  match submit_r t tx with
  | Ok () -> ()
  | Error e -> invalid_arg ("Network.submit: " ^ submit_error_to_string e)

let pending t = List.length t.mempool
let delayed t = List.length t.delayed

let set_adversary t f = t.adversary <- f
let set_mempool_fault t f = t.fault <- f
let set_block_hook t f = t.block_hook <- f

let tip_hash t = match t.chain with [] -> Block.genesis_hash | b :: _ -> Block.hash b

(* During a partition only the majority side serves reads and extends the
   canonical chain; minority nodes stay at the fork point until the heal. *)
let in_minority t id =
  match t.partition with None -> false | Some p -> List.mem id p.p_minority

(* The first live replica: the node every read-only view answers from.
   [crash_node] and [start_partition] refuse any change that would leave
   no live replica outside the minority, so this is total. *)
let live_node t =
  let rec find i =
    if i >= Array.length t.nodes then
      raise (Consensus_failure "no live replica")
    else if t.nodes.(i).up && not (in_minority t i) then t.nodes.(i)
    else find (i + 1)
  in
  find 0

let node_up t i = t.nodes.(i).up

let node_state_root t i = State.root (t.nodes.(i).state)

(* Is some replica up outside [excluded]?  [crash_node] and
   [start_partition] keep one outside the minority: it mines and answers
   reads. *)
let live_outside t excluded = Array.exists (fun n -> n.up && not (List.mem n.id excluded)) t.nodes

let crash_node t ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Network.crash_node: no such node";
  let n = t.nodes.(node) in
  if n.up then begin
    let minority = match t.partition with None -> [] | Some p -> p.p_minority in
    if not (live_outside t (node :: minority)) then
      invalid_arg "Network.crash_node: no live replica would remain outside the minority";
    n.up <- false
  end

let blocks t = List.rev t.chain
let genesis t = t.genesis

(* The one execution rule: a block's transactions in block order on
   [st], one receipt each.  Sealing runs it on every live replica, and
   every replay (re-sync, receipt rebuild, fork sibling, audit) runs it
   unchecked: the block's sealer checked each signature. *)
let execute st ~height txs = List.map (State.apply_tx st ~height) txs

(* Execute [blocks], oldest first, on [st]. *)
let apply_blocks ?(on_receipt = ignore) st blocks =
  List.iter
    (fun (b : Block.t) ->
      List.iter on_receipt (execute st ~height:b.Block.header.Block.height b.Block.txs))
    blocks

let replay_fresh ?on_receipt t =
  let fresh = State.create ~genesis:t.genesis in
  apply_blocks ?on_receipt fresh (blocks t);
  fresh

(* The one re-sync rule, for a restart, either heal outcome and an adopted
   sibling.  A replica whose last executed block is still canonical applies
   only the blocks above it; one that executed since-orphaned blocks
   replays the chain from genesis.  Either way deterministic execution must
   land it on the tip header's state root. *)
let resync t n =
  let rec above newer = function
    | [] -> if Bytes.equal n.head Block.genesis_hash then Some newer else None
    | b :: older ->
      if Bytes.equal (Block.hash b) n.head then Some newer else above (b :: newer) older
  in
  (match above [] t.chain with
  | Some newer -> apply_blocks n.state newer
  | None -> n.state <- replay_fresh t);
  n.head <- tip_hash t;
  match t.chain with
  | tip :: _ when not (Bytes.equal (State.root n.state) tip.Block.header.Block.state_root) ->
    raise
      (Consensus_failure
         (Printf.sprintf "node %d failed to resync: state root diverges at height %d" n.id
            (height t)))
  | _ -> ()

let restart_node t ~node =
  if node < 0 || node >= Array.length t.nodes then
    invalid_arg "Network.restart_node: no such node";
  let n = t.nodes.(node) in
  if not n.up then begin
    resync t n;
    n.up <- true
  end

(* --- forks and partitions --- *)

let partition_active t = t.partition <> None

let start_partition t ~minority =
  if t.partition <> None then invalid_arg "Network.start_partition: partition already active";
  let n = Array.length t.nodes in
  let minority = List.sort_uniq compare minority in
  if minority = [] then invalid_arg "Network.start_partition: empty minority";
  if List.mem 0 minority then
    invalid_arg "Network.start_partition: node 0 must stay on the majority side";
  List.iter
    (fun id -> if id < 0 || id >= n then invalid_arg "Network.start_partition: no such node")
    minority;
  if not (live_outside t minority) then
    invalid_arg "Network.start_partition: no live replica outside the minority";
  t.partition <- Some { p_minority = minority; p_fork_height = height t; p_ticks = 0 }

type heal_report = { adopted_fork : bool; reorged_blocks : int; requeued_txs : int }

let rec split_at k l =
  if k = 0 then ([], l)
  else match l with [] -> ([], []) | x :: tl -> let a, b = split_at (k - 1) tl in (x :: a, b)

(* First-wins per transaction hash: a duplicated transaction (fault
   injection) re-executes and fails on nonce replay, but must not
   overwrite the canonical receipt of its first execution. *)
let record t (r : State.receipt) =
  let k = Sha256.to_hex r.State.tx_hash in
  if not (Hashtbl.mem t.receipts k) then Hashtbl.replace t.receipts k r;
  t.logs <- List.rev_append r.State.logs t.logs

(* The one fork choice, for partition heals and byzantine siblings:
   [branch] (newest first) competes with the canonical blocks above
   [fork_height].  The longer branch wins; equal lengths go to the
   lexicographically smaller tip hash, so chain height never decreases.
   On adoption the orphaned transactions rejoin the front of the mempool
   in block order (minus any the branch carries) so the next block
   re-mines them, and the receipts and logs are rebuilt from one replay
   of the adopted chain.  Either way every live replica then re-syncs. *)
let fork_choice t ~fork_height branch =
  let main, common = split_at (height t - fork_height) t.chain in
  let adopt =
    match (branch, main) with
    | [], _ -> false
    | _, [] -> true
    | b :: _, m :: _ ->
      let longer = List.length branch - List.length main in
      longer > 0 || (longer = 0 && Bytes.compare (Block.hash b) (Block.hash m) < 0)
  in
  let report =
    if not adopt then { adopted_fork = false; reorged_blocks = 0; requeued_txs = 0 }
    else begin
      t.chain <- branch @ common;
      let on_branch = Hashtbl.create 64 in
      List.iter
        (fun (b : Block.t) ->
          List.iter (fun tx -> Hashtbl.replace on_branch (Tx.hash tx) ()) b.Block.txs)
        branch;
      let orphaned =
        List.concat_map
          (fun (b : Block.t) ->
            List.filter (fun tx -> not (Hashtbl.mem on_branch (Tx.hash tx))) b.Block.txs)
          (List.rev main)
      in
      t.mempool <- t.mempool @ List.rev orphaned;
      Hashtbl.reset t.receipts;
      t.logs <- [];
      ignore (replay_fresh t ~on_receipt:(record t));
      let requeued_txs = List.length orphaned in
      { adopted_fork = true; reorged_blocks = List.length main; requeued_txs }
    end
  in
  Array.iter (fun n -> if n.up then resync t n) t.nodes;
  report

let heal_partition t =
  match t.partition with
  | None -> invalid_arg "Network.heal_partition: no active partition"
  | Some p ->
    t.partition <- None;
    (* The minority branch: one empty block per tick, linked off the last
       common block and carrying its state root. *)
    let prev, root =
      match List.nth_opt t.chain (height t - p.p_fork_height) with
      | Some b -> (Block.hash b, b.Block.header.Block.state_root)
      | None -> (Block.genesis_hash, State.root (State.create ~genesis:t.genesis))
    in
    let rec grow branch prev h =
      if h > p.p_fork_height + p.p_ticks then branch
      else
        let b = Block.make ~height:h ~prev_hash:prev ~state_root:root [] in
        grow (b :: branch) (Block.hash b) (h + 1)
    in
    fork_choice t ~fork_height:p.p_fork_height (grow [] prev (p.p_fork_height + 1))

(* Each sender's transactions re-slotted into that sender's positions in
   nonce order: however a block is ordered (fee sort, byzantine miner,
   forked sibling), it never runs a later nonce first, which validators
   would reject.  Only that sender's slots move, so the result does not
   depend on hashtable iteration order. *)
let nonce_lanes txs =
  match txs with
  | [] | [ _ ] -> txs
  | _ ->
    let arr = Array.of_list txs in
    let by_sender = Hashtbl.create 8 in
    Array.iteri
      (fun i tx ->
        let k = Address.to_hex tx.Tx.sender in
        let prev = try Hashtbl.find by_sender k with Not_found -> [] in
        Hashtbl.replace by_sender k (i :: prev))
      arr;
    Hashtbl.iter
      (fun _ rev_positions ->
        match rev_positions with
        | [] | [ _ ] -> ()
        | _ ->
          let ps = List.rev rev_positions in
          let txs = List.map (fun i -> arr.(i)) ps in
          let txs = List.stable_sort (fun a b -> compare a.Tx.nonce b.Tx.nonce) txs in
          List.iter2 (fun i tx -> arr.(i) <- tx) ps txs)
      by_sender;
    Array.to_list arr

(* A byzantine miner mines a conflicting sibling of the current tip (same
   parent, same height, transactions permuted in nonce lanes).  Like
   [mine_ext], it drops every candidate that fails [Tx.validate].  Between
   two equal-length chains the fork choice is the lexicographically
   smaller tip hash, so the sibling is adopted — a one-block reorg —
   exactly when its hash sorts below the honest tip's.  [None] means there
   was nothing to fork (no tip, an active partition, or an identity
   permutation). *)
let fork_tip t ~permute =
  match t.chain with
  | [] -> None
  | _ when t.partition <> None -> None
  | tip :: rest ->
    let txs' = nonce_lanes (List.filter Tx.validate (permute tip.Block.txs)) in
    let same =
      List.length txs' = List.length tip.Block.txs
      && List.for_all2 (fun a b -> Bytes.equal (Tx.hash a) (Tx.hash b)) txs' tip.Block.txs
    in
    if same then None
    else begin
      let st = State.create ~genesis:t.genesis in
      apply_blocks st (List.rev rest);
      let h = tip.Block.header.Block.height in
      ignore (execute st ~height:h txs');
      let sibling =
        Block.make ~height:h ~prev_hash:tip.Block.header.Block.prev_hash
          ~state_root:(State.root st) txs'
      in
      Some (fork_choice t ~fork_height:(h - 1) [ sibling ]).adopted_fork
    end

type exec_result =
  | Applied of State.receipt
  | Conflict_retry of State.receipt
  | Rejected of string

(* Highest fee first, stable on arrival order, in nonce lanes. *)
let fee_order txs = nonce_lanes (List.stable_sort (fun a b -> compare b.Tx.fee a.Tx.fee) txs)

let mine_ext t =
  Obs.with_span "chain.mine" @@ fun () ->
  let new_height = height t + 1 in
  (* The block hook fires before the block forms so a fault controller can
     take a replica down (or bring one back) effective this very height. *)
  (match t.block_hook with None -> () | Some f -> f ~height:new_height);
  if height t + 1 <> new_height then
    raise
      (Consensus_failure
         (Printf.sprintf "block hook moved the tip while mining height %d" new_height));
  let fifo = List.rev t.mempool in
  t.mempool <- [];
  Obs.Gauge.set m_mempool_depth 0.;
  (* Delayed transactions whose release height arrived rejoin ahead of the
     fresh mempool (they were broadcast earlier).  They do NOT pass through
     the fault pipeline again: a delay fault holds a transaction back
     exactly its k blocks — re-drawing the coin on release would turn the
     bounded delay into possible censorship. *)
  let released, still = List.partition (fun (h, _) -> h <= new_height) t.delayed in
  t.delayed <- still;
  (* The fault pipeline draws its decisions on the arrival-order (FIFO)
     candidates; the survivors are then fee-ordered.  Released delayed
     transactions go ahead of the fee-ordered fresh mempool, exempt from
     both re-drawn fault coins and fee competition — otherwise a high-fee
     flood could starve a delayed transaction indefinitely, turning the
     bounded delay into censorship. *)
  let scheduled =
    match t.fault with
    | None -> List.map snd released @ fee_order fifo
    | Some f ->
      let now, postponed = f ~height:new_height fifo in
      t.delayed <- t.delayed @ postponed;
      List.map snd released @ fee_order now
  in
  let ordered =
    match t.adversary with
    | None -> scheduled
    | Some f ->
      let out = nonce_lanes (f scheduled) in
      (* A reordering adversary may also omit or duplicate transactions,
         but cannot censor under synchrony: anything it left out of this
         block stays pending for a later one. *)
      let kept = Hashtbl.create 16 in
      List.iter (fun tx -> Hashtbl.replace kept (Sha256.to_hex (Tx.hash tx)) ()) out;
      let omitted =
        List.filter (fun tx -> not (Hashtbl.mem kept (Sha256.to_hex (Tx.hash tx)))) scheduled
      in
      t.mempool <- List.rev omitted;
      out
  in
  (* One signature check per candidate: the fault pipeline and the
     adversary can seal transactions that never passed [submit_r]. *)
  let tagged = List.map (fun tx -> (tx, Tx.validate tx)) ordered in
  let valid = List.filter_map (fun (tx, ok) -> if ok then Some tx else None) tagged in
  Obs.Histogram.observe m_txs_per_block (float_of_int (List.length valid));
  Obs.Counter.add m_txs (List.length valid);
  (* During a partition only the majority side sees the mempool and
     executes the canonical-candidate branch; fork choice at heal time
     decides whether it or the minority's empty branch survives. *)
  let live = Array.to_list t.nodes |> List.filter (fun n -> n.up && not (in_minority t n.id)) in
  (* Every live node executes the block independently; roots must agree.
     The exec span gets one sample per node per block, so its histogram is
     the distribution of per-node block execution time. *)
  let all_receipts =
    List.map
      (fun node ->
        Obs.with_span "chain.mine.exec" (fun () -> execute node.state ~height:new_height valid))
      live
  in
  if valid <> [] then Obs.Histogram.observe m_waves 1.;
  let block =
    Obs.with_span "chain.mine.consensus" @@ fun () ->
    let roots = List.map (fun node -> State.root node.state) live in
    let root0 = List.hd roots in
    List.iteri
      (fun i r ->
        if not (Bytes.equal r root0) then
          raise
            (Consensus_failure
               (Printf.sprintf "node %d state root diverges at height %d"
                  (List.nth live i).id new_height)))
      roots;
    Block.make ~height:new_height ~prev_hash:(tip_hash t) ~state_root:root0 valid
  in
  t.chain <- block :: t.chain;
  let head = Block.hash block in
  List.iter (fun n -> n.head <- head) live;
  Obs.Counter.incr m_blocks;
  (* The minority branch grows by one empty block on every tick one of its
     replicas is up; [heal_partition] builds it. *)
  (match t.partition with
  | Some p when Array.exists (fun n -> n.up && List.mem n.id p.p_minority) t.nodes ->
    p.p_ticks <- p.p_ticks + 1
  | _ -> ());
  let receipts = List.hd all_receipts in
  List.iter (record t) receipts;
  (* Classify in block-candidate order: invalid candidates become
     [Rejected], executed ones [Applied]. *)
  let rec classify tagged receipts =
    match (tagged, receipts) with
    | [], [] -> []
    | (_, false) :: tl, receipts -> Rejected "invalid signature" :: classify tl receipts
    | (_, true) :: tl, r :: receipts -> Applied r :: classify tl receipts
    | _ -> assert false
  in
  classify tagged receipts

let mine t =
  List.filter_map
    (function Applied r | Conflict_retry r -> Some r | Rejected _ -> None)
    (mine_ext t)

let mine_until t ~height:target =
  while height t < target do
    ignore (mine t)
  done

let node0 t = (live_node t).state

let balance t addr = State.balance (node0 t) addr
let nonce t addr = State.nonce (node0 t) addr
let contract_storage t addr = State.contract_storage (node0 t) addr
let is_contract t addr = State.is_contract (node0 t) addr

let receipt t tx_hash = Hashtbl.find_opt t.receipts (Sha256.to_hex tx_hash)

let total_supply t = State.total_supply (node0 t)

let all_logs t = List.rev t.logs

let state_root t = State.root (node0 t)

let replay t = State.root (replay_fresh t)
