module Network = Zebra_chain.Network
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Sha256 = Zebra_hashing.Sha256
module Faults = Zebra_faults.Faults
module Store = Zebra_store.Store
module Indexer = Zebra_index.Indexer

type settlement =
  | Rewarded of int array
  | Finalized
  | Aborted of Protocol.error

type outcome = {
  settlement : settlement;
  final_height : int;
  state_root : string;
  replicas_agree : bool;
  supply_conserved : bool;
  store_fetch_attempts : int;
  store_recovered : bool;
  indexer_events : int;
  indexer_reorgs : int;
  indexer_agrees : bool;
  indexer_error : string option;
  trace : string list;
}

let settlement_to_string = function
  | Rewarded rewards ->
    Printf.sprintf "rewarded [%s]"
      (String.concat ";" (List.map string_of_int (Array.to_list rewards)))
  | Finalized -> "finalized (timeout fallback)"
  | Aborted e -> "aborted: " ^ Protocol.error_to_string e

let outcome_to_string o =
  let b = Buffer.create 512 in
  Buffer.add_string b (Printf.sprintf "fault trace (%d events):\n" (List.length o.trace));
  List.iter (fun line -> Buffer.add_string b ("  " ^ line ^ "\n")) o.trace;
  Buffer.add_string b (Printf.sprintf "settlement: %s\n" (settlement_to_string o.settlement));
  Buffer.add_string b (Printf.sprintf "final height: %d\n" o.final_height);
  Buffer.add_string b (Printf.sprintf "state root: %s\n" o.state_root);
  Buffer.add_string b (Printf.sprintf "replicas agree: %b\n" o.replicas_agree);
  Buffer.add_string b (Printf.sprintf "supply conserved: %b\n" o.supply_conserved);
  Buffer.add_string b
    (if o.store_fetch_attempts = 0 then "store fetch: none (the round aborted before it)\n"
     else
       Printf.sprintf "store fetch: %s after %d attempt(s)\n"
         (if o.store_recovered then "recovered" else "NOT recovered")
         o.store_fetch_attempts);
  Buffer.add_string b
    (Printf.sprintf "indexer: %d event(s), %d reorg(s)\n" o.indexer_events o.indexer_reorgs);
  Buffer.add_string b
    (match o.indexer_error with
    | None -> Printf.sprintf "indexer agrees with contract state: %b" o.indexer_agrees
    | Some why -> Printf.sprintf "indexer agrees with contract state: false (%s)" why);
  Buffer.contents b

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

(* One fetch of the task blob, healing a lost/corrupted chunk by
   re-[put]ting the content (what a provider re-seeding the CAS does).
   Bounded like every other retry loop in the chaos layer. *)
let fetch_with_heal store ~blob ~digest ~max_attempts =
  let rec go attempts =
    match Store.get store digest with
    | Some bytes ->
      assert (Bytes.equal bytes blob);
      (attempts, true)
    | None ->
      if attempts >= max_attempts then (attempts, false)
      else begin
        ignore (Store.put store blob);
        go (attempts + 1)
      end
  in
  go 1

let run ?(n = 3) ?(budget = 60) ~seed ~plan () =
  let faults = Faults.create ~seed plan in
  let sys = Protocol.create_system ~seed () in
  let supply0 = Network.total_supply sys.Protocol.net in
  (* The task's off-chain payload: a multi-chunk blob whose root hash is
     anchored in the contract's [data_digest]. *)
  let store = Store.create ~chunk_size:64 () in
  let blob = Protocol.random_bytes sys 300 in
  let digest = Store.put store blob in
  Faults.attach faults sys.Protocol.net;
  Faults.attach_store faults store;
  let idx = Indexer.create () in
  let spec = Faults.spec faults in
  let rec enroll_many acc k =
    if k = 0 then Ok (List.rev acc)
    else
      let* id = Protocol.enroll_r sys in
      enroll_many (id :: acc) (k - 1)
  in
  (* The fetch's verdict outlives a round that aborts after it; a round
     that aborts before it fetched nothing and lost nothing. *)
  let fetched = ref (0, true) in
  let round () =
    let* requester = Protocol.enroll_r sys in
    let* workers = enroll_many [] n in
    let* task =
      Protocol.publish_task_r sys ~requester
        ~policy:(Policy.Majority { choices = 4 })
        ~n ~budget ~answer_window:20 ~instruct_window:12 ~data_digest:digest ()
    in
    (* Mid-run incremental sync: pins the indexer's cursor mid-chain, so a
       later partition heal or byzantine fork that abandons these blocks
       is detected as a reorg (not silently replayed). *)
    ignore (Indexer.sync idx sys.Protocol.net);
    (* Workers fetch the payload off-chain before answering. *)
    fetched := fetch_with_heal store ~blob ~digest ~max_attempts:8;
    let answering =
      let indexed = List.mapi (fun i w -> (i, w)) workers in
      if spec.Faults.withhold_worker && n > 1 then
        List.filter (fun (i, _) -> i < n - 1) indexed
      else indexed
    in
    let m = List.length answering in
    (* The colluding pool: the last [collude] answering workers submit an
       identical deviant answer (3 against the honest 1), attacking the
       majority reward policy.  Whether they sway it depends on whether
       they outnumber the honest answers — the settlement records it. *)
    let answer_of pos =
      if spec.Faults.collude > 0 && pos >= m - spec.Faults.collude then 3 else 1
    in
    let with_answers = List.mapi (fun pos (i, w) -> (i, w, answer_of pos)) answering in
    let victims =
      List.sort_uniq compare
        (List.filter_map
           (fun (w : Faults.eclipse_window) ->
             if List.exists (fun (i, _, _) -> i = w.Faults.victim) with_answers then
               Some w.Faults.victim
             else None)
           spec.Faults.eclipses)
    in
    let eclipsed, normal = List.partition (fun (i, _, _) -> List.mem i victims) with_answers in
    (* Eclipse victims broadcast themselves (the scenario driver plays the
       victim's client): their one-task wallet is registered with the
       fault controller first, so the adversary holds every transaction
       from that sender for the whole window. *)
    let submit_eclipsed (i, id, answer) =
      let storage = Protocol.task_storage sys task.Requester.contract in
      let wallet = Protocol.fresh_wallet sys in
      Faults.set_eclipsed faults ~victim:i ~sender_hex:(Address.to_hex (Wallet.address wallet));
      let tx = Protocol.answer_tx sys ~storage ~task:task.Requester.contract ~wallet id ~answer in
      match Network.submit_r sys.Protocol.net tx with
      | Ok () -> Ok (i, tx)
      | Error e ->
        Error
          (Protocol.Submission_rejected { worker = i; reason = Network.submit_error_to_string e })
    in
    let rec submit_all acc = function
      | [] -> Ok (List.rev acc)
      | e :: tl -> (
        match submit_eclipsed e with Ok x -> submit_all (x :: acc) tl | Error err -> Error err)
    in
    let* eclipse_txs = submit_all [] eclipsed in
    let* _wallets =
      if normal = [] then Ok []
      else
        Protocol.submit_answers_r sys ~task:task.Requester.contract
          ~workers:(List.map (fun (_i, w, a) -> (w, a)) normal)
    in
    (* Wait out the eclipse: mine until every held submission lands, or
       report a typed error if the window outlives the answer deadline. *)
    let* () =
      if eclipse_txs = [] then Ok ()
      else begin
        let deadline = task.Requester.params.Task_contract.answer_deadline in
        let receipt (_, tx) = Network.receipt sys.Protocol.net (Tx.hash tx) in
        let rec wait () =
          match
            List.find_map
              (fun ((i, _) as e) ->
                match receipt e with
                | Some { State.status = State.Failed reason; _ } ->
                  Some (Protocol.Submission_rejected { worker = i; reason })
                | _ -> None)
              eclipse_txs
          with
          | Some e -> Error e
          | None ->
            if List.for_all (fun e -> Option.is_some (receipt e)) eclipse_txs then Ok ()
            else if Network.height sys.Protocol.net > deadline then
              (* Each victim broadcast its submission once. *)
              Error (Protocol.Timed_out { phase = "eclipse"; attempts = 1 })
            else
              let* () =
                Protocol.mine_to_r sys ~height:(Network.height sys.Protocol.net + 1)
              in
              wait ()
        in
        wait ()
      end
    in
    ignore (Indexer.sync idx sys.Protocol.net);
    (* With a withheld answer the collection never fills, so the requester
       may only instruct once the answer deadline passes. *)
    let* () =
      if m < n then
        Protocol.mine_to_r sys
          ~height:(task.Requester.params.Task_contract.answer_deadline + 1)
      else Ok ()
    in
    if spec.Faults.no_instruction then
      let* () = Protocol.finalize_r sys task in
      Ok Finalized
    else
      let* rewards = Protocol.reward_r sys task in
      Ok (Rewarded rewards)
  in
  let settlement = match round () with Ok s -> s | Error e -> Aborted e in
  let store_fetch_attempts, store_recovered = !fetched in
  (* End of run: bring every crashed replica back and check the global
     invariants a chaos plan must never break. *)
  let settlement =
    match Faults.finish faults sys.Protocol.net with
    | () -> settlement
    | exception Network.Consensus_failure why -> (
      match settlement with
      | Aborted _ -> settlement
      | _ -> Aborted (Protocol.Node_down why))
  in
  Faults.detach sys.Protocol.net;
  Faults.detach_store store;
  let net = sys.Protocol.net in
  (* A heal-time reorg may have requeued orphaned transactions; mine them
     out (fault-free now) so the settled state is fully canonical before
     the invariants are judged. *)
  let rec drain k =
    if k > 0 && Network.pending net > 0 then begin
      ignore (Network.mine net);
      drain (k - 1)
    end
  in
  let settlement =
    match drain 4 with
    | () -> settlement
    | exception Network.Consensus_failure why -> (
      match settlement with
      | Aborted _ -> settlement
      | _ -> Aborted (Protocol.Node_down why))
  in
  ignore (Indexer.sync idx net);
  let indexer_check = Indexer.check idx net in
  let root = Network.state_root net in
  let replicas_agree =
    let agree = ref true in
    for node = 0 to Network.num_nodes net - 1 do
      agree :=
        !agree
        && Network.node_up net node
        && Bytes.equal (Network.node_state_root net node) root
    done;
    !agree
  in
  {
    settlement;
    final_height = Network.height net;
    state_root = Sha256.to_hex root;
    replicas_agree;
    supply_conserved = Network.total_supply net = supply0;
    store_fetch_attempts;
    store_recovered;
    indexer_events = Indexer.event_count idx;
    indexer_reorgs = Indexer.reorg_count idx;
    indexer_agrees = (match indexer_check with Ok () -> true | Error _ -> false);
    indexer_error = (match indexer_check with Ok () -> None | Error why -> Some why);
    trace = Faults.trace faults;
  }
