module Sha256 = Zebra_hashing.Sha256
module Address = Zebra_chain.Address
module Tx = Zebra_chain.Tx
module Block = Zebra_chain.Block
module State = Zebra_chain.State
module Network = Zebra_chain.Network
module Contract = Zebra_chain.Contract

type event =
  | Deployed of { height : int; addr : Address.t; behavior : string; tx : string }
  | Called of { height : int; addr : Address.t; behavior : string; sender : Address.t; tx : string }
  | Transferred of { height : int; source : Address.t; dest : Address.t; amount : int }
  | Logged of { height : int; addr : Address.t; line : string }
  | Reorged of { height : int }

let event_to_string = function
  | Deployed { height; addr; behavior; tx } ->
    Printf.sprintf "h=%d deployed %s behavior=%s tx=%s" height (Address.to_hex addr) behavior tx
  | Called { height; addr; behavior; sender; tx } ->
    Printf.sprintf "h=%d called %s behavior=%s sender=%s tx=%s" height (Address.to_hex addr)
      behavior (Address.to_hex sender) tx
  | Transferred { height; source; dest; amount } ->
    Printf.sprintf "h=%d transfer %s -> %s amount=%d" height (Address.to_hex source)
      (Address.to_hex dest) amount
  | Logged { height; addr; line } ->
    Printf.sprintf "h=%d log %s %S" height (Address.to_hex addr) line
  | Reorged { height } -> Printf.sprintf "h=%d reorg detected, re-indexing from genesis" height

type entry = {
  addr : Address.t;
  behavior : string;
  mutable storage : bytes;
  mutable balance : int;
}

type t = {
  contracts : (string, entry) Hashtbl.t;  (* address hex -> mirror entry *)
  credits : (string, int) Hashtbl.t;  (* address hex -> value sent there while untracked *)
  seen : (string, unit) Hashtbl.t;  (* applied tx hashes (dedup vs fault duplicates) *)
  mutable cursor_height : int;
  mutable cursor_tip : string;  (* hex hash of the block at the cursor *)
  mutable events : event list;  (* newest first *)
  mutable n_events : int;
  mutable reorgs : int;
  mutable diverged : string option;  (* mirror vs receipt disagreement; [check] reports it *)
  mutable subscribers : (event -> unit) list;
}

let create () =
  {
    contracts = Hashtbl.create 32;
    credits = Hashtbl.create 256;
    seen = Hashtbl.create 256;
    cursor_height = 0;
    cursor_tip = Sha256.to_hex Block.genesis_hash;
    events = [];
    n_events = 0;
    reorgs = 0;
    diverged = None;
    subscribers = [];
  }

let cursor t = (t.cursor_height, t.cursor_tip)
let events t = List.rev t.events
let event_count t = t.n_events
let reorg_count t = t.reorgs

let subscribe t f = t.subscribers <- t.subscribers @ [ f ]

let emit t ev =
  t.events <- ev :: t.events;
  t.n_events <- t.n_events + 1;
  List.iter (fun f -> f ev) t.subscribers

let reset t =
  Hashtbl.reset t.contracts;
  Hashtbl.reset t.credits;
  Hashtbl.reset t.seen;
  t.cursor_height <- 0;
  t.cursor_tip <- Sha256.to_hex Block.genesis_hash

let storage t addr =
  match Hashtbl.find_opt t.contracts (Address.to_hex addr) with
  | None -> None
  | Some e -> Some e.storage

let balance t addr =
  match Hashtbl.find_opt t.contracts (Address.to_hex addr) with
  | None -> None
  | Some e -> Some e.balance

let behavior t addr =
  match Hashtbl.find_opt t.contracts (Address.to_hex addr) with
  | None -> None
  | Some e -> Some e.behavior

let contract_addresses t =
  Hashtbl.fold (fun _ e acc -> e.addr :: acc) t.contracts []
  |> List.sort (fun a b -> compare (Address.to_hex a) (Address.to_hex b))

(* Value sent to an address the indexer does not track.  A contract's
   address is predictable ([Address.of_creator]), so this may be a
   deployment's balance before it exists. *)
let credited t hex = Option.value (Hashtbl.find_opt t.credits hex) ~default:0
let credit t hex amount = Hashtbl.replace t.credits hex (credited t hex + amount)

(* Mirror-execute one chain transaction against the indexer's shadow
   contract state.  Only transactions whose canonical receipt succeeded are
   applied (a failed transaction rolled back everything but the nonce,
   which the indexer does not track), and only at their first occurrence —
   fault-injected duplicates re-execute on chain and fail nonce replay, so
   the first receipt is the canonical one.  [tx_hex] is the first eight
   hex digits of the transaction's hash, which events carry. *)
let apply_tx t ~height ~tx_hex (tx : Tx.t) (r : State.receipt) =
  let ctx self self_balance =
    {
      Contract.self;
      sender = tx.Tx.sender;
      value = tx.Tx.value;
      height;
      self_balance;
      charge = (fun _ -> ());
    }
  in
  match (tx.Tx.dst, r.State.status) with
  | _, State.Failed _ -> ()
  | Tx.Create { behavior; args }, State.Ok created -> (
    match created with
    | None -> t.diverged <- Some (Printf.sprintf "create receipt without address (tx %s)" tx_hex)
    | Some addr -> (
      match Contract.lookup behavior with
      | exception Not_found ->
        t.diverged <- Some (Printf.sprintf "unknown behavior %s (tx %s)" behavior tx_hex)
      | packed -> (
        let hex = Address.to_hex addr in
        let balance = tx.Tx.value + credited t hex in
        match Contract.run_init packed (ctx addr balance) args with
        | exception Contract.Revert why ->
          t.diverged <-
            Some (Printf.sprintf "mirror init reverted (%s) but receipt is ok (tx %s)" why tx_hex)
        | storage ->
          Hashtbl.remove t.credits hex;
          Hashtbl.replace t.contracts hex { addr; behavior; storage; balance };
          emit t (Deployed { height; addr; behavior; tx = tx_hex }))))
  | Tx.Call dest, State.Ok _ -> (
    let dest_hex = Address.to_hex dest in
    match Hashtbl.find_opt t.contracts dest_hex with
    | None ->
      (* A plain value transfer; the indexer tracks contract state only. *)
      if tx.Tx.value > 0 then begin
        credit t dest_hex tx.Tx.value;
        emit t (Transferred { height; source = tx.Tx.sender; dest; amount = tx.Tx.value })
      end
    | Some e -> (
      let packed =
        try Some (Contract.lookup e.behavior) with Not_found -> None
      in
      match packed with
      | None -> t.diverged <- Some (Printf.sprintf "unknown behavior %s (tx %s)" e.behavior tx_hex)
      | Some packed -> (
        match
          Contract.run_receive packed (ctx e.addr (e.balance + tx.Tx.value)) e.storage
            ~payload:tx.Tx.payload
        with
        | exception Contract.Revert why ->
          t.diverged <-
            Some
              (Printf.sprintf "mirror call reverted (%s) but receipt is ok (tx %s)" why tx_hex)
        | storage', actions ->
          e.storage <- storage';
          e.balance <- e.balance + tx.Tx.value;
          emit t (Called { height; addr = e.addr; behavior = e.behavior; sender = tx.Tx.sender; tx = tx_hex });
          List.iter
            (function
              | Contract.Transfer (dest, amount) ->
                e.balance <- e.balance - amount;
                let hex = Address.to_hex dest in
                (match Hashtbl.find_opt t.contracts hex with
                | Some payee -> payee.balance <- payee.balance + amount
                | None -> credit t hex amount);
                emit t (Transferred { height; source = e.addr; dest; amount })
              | Contract.Log line -> emit t (Logged { height; addr = e.addr; line }))
            actions)))

let apply_block t net (b : Block.t) =
  let height = b.Block.header.Block.height in
  List.iter
    (fun tx ->
      let h = Tx.hash tx in
      let k = Sha256.to_hex h in
      if not (Hashtbl.mem t.seen k) then begin
        Hashtbl.add t.seen k ();
        let tx_hex = String.sub k 0 8 in
        match Network.receipt net h with
        | None -> t.diverged <- Some (Printf.sprintf "no receipt for mined tx %s" tx_hex)
        | Some r -> apply_tx t ~height ~tx_hex tx r
      end)
    b.Block.txs;
  t.cursor_height <- height;
  t.cursor_tip <- Sha256.to_hex (Block.hash b)

(* Catch the indexer up to the network's tip.  The cursor is checked
   against the chain first: if the block the cursor points at is no longer
   on the canonical chain (a reorg replaced it), the indexer emits
   [Reorged], resets and re-indexes from genesis — chain events are the
   only source of truth, so a reorg invalidates everything derived from
   the abandoned branch.  Returns the number of blocks applied. *)
let sync t net =
  let blocks = Network.blocks net in
  let n = List.length blocks in
  let cursor_valid =
    t.cursor_height = 0
    || (t.cursor_height <= n
       &&
       match List.nth_opt blocks (t.cursor_height - 1) with
       | Some b -> Sha256.to_hex (Block.hash b) = t.cursor_tip
       | None -> false)
  in
  if not cursor_valid then begin
    t.reorgs <- t.reorgs + 1;
    emit t (Reorged { height = t.cursor_height });
    reset t
  end;
  let fresh =
    List.filteri (fun i _ -> i >= t.cursor_height) blocks
  in
  List.iter (fun b -> apply_block t net b) fresh;
  List.length fresh

(* The consistency oracle: every contract the indexer tracks must hold
   byte-identical storage and the same balance on chain, and the chain
   must know it under the same behaviour.  (Completeness is by
   construction: contracts are only ever born from [Create] transactions,
   which the indexer sees.) *)
let check t net =
  match t.diverged with
  | Some why -> Error ("mirror execution diverged: " ^ why)
  | None ->
    let problems =
      Hashtbl.fold
        (fun hex (e : entry) acc ->
          if not (Network.is_contract net e.addr) then
            Printf.sprintf "indexed contract %s is not a contract on chain" hex :: acc
          else
            match Network.contract_storage net e.addr with
            | None -> Printf.sprintf "indexed contract %s has no storage on chain" hex :: acc
            | Some chain_storage ->
              if not (Bytes.equal chain_storage e.storage) then
                Printf.sprintf "storage mismatch at %s (%s)" hex e.behavior :: acc
              else if Network.balance net e.addr <> e.balance then
                Printf.sprintf "balance mismatch at %s (indexer %d, chain %d)" hex e.balance
                  (Network.balance net e.addr)
                :: acc
              else acc)
        t.contracts []
    in
    (match List.sort compare problems with
    | [] -> Ok ()
    | p :: _ -> Error p)

let agrees t net = match check t net with Ok () -> true | Error _ -> false
