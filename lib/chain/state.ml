module Sha256 = Zebra_hashing.Sha256
module Codec = Zebra_codec.Codec
module Obs = Zebra_obs.Obs

let m_reverts = Obs.Counter.make "chain.state.reverts"
let m_shards_hashed = Obs.Counter.make "chain.state.root.shards_hashed"
let m_root_bytes = Obs.Counter.make "chain.state.root_bytes"

type account = { balance : int; nonce : int }

type contract_info = { behavior : string; storage : bytes }

(* The ledger is sharded by address so [root] can cache one sub-root per
   shard and rehash only the shards a block wrote.  The root's bytes
   depend on this count. *)
let num_shards = 32

(* [sub_root] caches the shard's digest for [root]; every write clears it. *)
type shard = {
  accounts : (string, account) Hashtbl.t; (* key: address hex *)
  contracts : (string, contract_info) Hashtbl.t;
  mutable sub_root : bytes option; (* None: written since the last root *)
}

type t = { shards : shard array }

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> 0

(* Addresses are hashes, so their leading byte is uniform. *)
let shard_of_key key =
  if String.length key < 2 then 0
  else ((hex_val key.[0] * 16) + hex_val key.[1]) land (num_shards - 1)

let shard_of_address addr = shard_of_key (Address.to_hex addr)

type status =
  | Ok of Address.t option
  | Failed of string

type receipt = {
  tx_hash : bytes;
  status : status;
  gas_used : int;
  logs : string list;
}

let create ~genesis =
  let t =
    {
      shards =
        Array.init num_shards (fun _ ->
            { accounts = Hashtbl.create 8; contracts = Hashtbl.create 4; sub_root = None });
    }
  in
  List.iter
    (fun (addr, amount) ->
      if amount < 0 then invalid_arg "State.create: negative genesis balance";
      let key = Address.to_hex addr in
      Hashtbl.replace t.shards.(shard_of_key key).accounts key { balance = amount; nonce = 0 })
    genesis;
  t

(* --- unguarded read-only views (callers outside block execution) --- *)

let account t addr =
  let key = Address.to_hex addr in
  match Hashtbl.find_opt t.shards.(shard_of_key key).accounts key with
  | Some a -> a
  | None -> { balance = 0; nonce = 0 }

let balance t addr = (account t addr).balance
let nonce t addr = (account t addr).nonce

let contract_storage t addr =
  let key = Address.to_hex addr in
  Option.map
    (fun c -> c.storage)
    (Hashtbl.find_opt t.shards.(shard_of_key key).contracts key)

let is_contract t addr =
  let key = Address.to_hex addr in
  Hashtbl.mem t.shards.(shard_of_key key).contracts key

(* --- journaled transaction context ---

   Every mutation records the previous binding, so a failed transaction's
   effects can be undone exactly, back to the nonce advance. *)

type undo =
  | U_account of string * account option
  | U_contract of string * contract_info option

type txn = {
  st : t;
  mutable undos : undo list; (* newest first *)
}

let txn_shard txn key = txn.st.shards.(shard_of_key key)

let t_account txn addr =
  let key = Address.to_hex addr in
  match Hashtbl.find_opt (txn_shard txn key).accounts key with
  | Some a -> a
  | None -> { balance = 0; nonce = 0 }

let t_set_account txn addr a =
  let key = Address.to_hex addr in
  let shard = txn_shard txn key in
  txn.undos <- U_account (key, Hashtbl.find_opt shard.accounts key) :: txn.undos;
  shard.sub_root <- None;
  Hashtbl.replace shard.accounts key a

let t_contract txn addr =
  let key = Address.to_hex addr in
  Hashtbl.find_opt (txn_shard txn key).contracts key

let t_set_contract txn addr c =
  let key = Address.to_hex addr in
  let shard = txn_shard txn key in
  txn.undos <- U_contract (key, Hashtbl.find_opt shard.contracts key) :: txn.undos;
  shard.sub_root <- None;
  Hashtbl.replace shard.contracts key c

let apply_undo t u =
  match u with
  | U_account (key, prev) -> (
    let shard = t.shards.(shard_of_key key) in
    shard.sub_root <- None;
    match prev with
    | Some a -> Hashtbl.replace shard.accounts key a
    | None -> Hashtbl.remove shard.accounts key)
  | U_contract (key, prev) -> (
    let shard = t.shards.(shard_of_key key) in
    shard.sub_root <- None;
    match prev with
    | Some c -> Hashtbl.replace shard.contracts key c
    | None -> Hashtbl.remove shard.contracts key)

(* Undo newest-first down to (but excluding) the physical tail [mark]. *)
let rec rollback t l mark =
  if l != mark then
    match l with
    | [] -> ()
    | u :: rest ->
      apply_undo t u;
      rollback t rest mark

let credit txn addr amount =
  let a = t_account txn addr in
  t_set_account txn addr { a with balance = a.balance + amount }

let debit txn addr amount =
  let a = t_account txn addr in
  if a.balance < amount then raise (Contract.Revert "insufficient balance");
  t_set_account txn addr { a with balance = a.balance - amount }

let apply_actions txn ~self actions =
  List.filter_map
    (fun action ->
      match action with
      | Contract.Transfer (dst, amount) ->
        if amount < 0 then raise (Contract.Revert "negative transfer");
        debit txn self amount;
        credit txn dst amount;
        None
      | Contract.Log msg -> Some msg)
    actions

let apply_tx t ~height tx =
  let txn = { st = t; undos = [] } in
  let tx_hash = Tx.hash tx in
  let gas = ref (Contract.Gas.base + (Contract.Gas.per_byte * Tx.size_bytes tx)) in
  let finish status logs = { tx_hash; status; gas_used = !gas; logs } in
  let fail reason = finish (Failed reason) [] in
  let sender = t_account txn tx.Tx.sender in
  if tx.Tx.nonce <> sender.nonce then fail "bad nonce"
  else if sender.balance < tx.Tx.value then fail "insufficient funds"
  else begin
    (* The nonce advances even if execution fails. *)
    t_set_account txn tx.Tx.sender { sender with nonce = sender.nonce + 1 };
    let after_nonce = txn.undos in
    let charge n = gas := !gas + n in
    let failed reason =
      rollback t txn.undos after_nonce;
      txn.undos <- after_nonce;
      fail reason
    in
    try
      match tx.Tx.dst with
      | Tx.Create { behavior; args } ->
        let beh =
          try Contract.lookup behavior
          with Not_found -> raise (Contract.Revert ("unknown behavior " ^ behavior))
        in
        let contract_addr = Address.of_creator tx.Tx.sender tx.Tx.nonce in
        if t_contract txn contract_addr <> None then
          raise (Contract.Revert "address collision");
        debit txn tx.Tx.sender tx.Tx.value;
        credit txn contract_addr tx.Tx.value;
        charge Contract.Gas.storage_word;
        let ctx =
          {
            Contract.self = contract_addr;
            sender = tx.Tx.sender;
            value = tx.Tx.value;
            height;
            self_balance = (t_account txn contract_addr).balance;
            charge;
          }
        in
        let storage =
          Obs.with_span "chain.state.exec" (fun () -> Contract.run_init beh ctx args)
        in
        t_set_contract txn contract_addr { behavior; storage };
        finish (Ok (Some contract_addr)) []
      | Tx.Call dst -> (
        match t_contract txn dst with
        | None ->
          (* plain value transfer *)
          debit txn tx.Tx.sender tx.Tx.value;
          credit txn dst tx.Tx.value;
          finish (Ok None) []
        | Some info ->
          let beh = Contract.lookup info.behavior in
          debit txn tx.Tx.sender tx.Tx.value;
          credit txn dst tx.Tx.value;
          let ctx =
            {
              Contract.self = dst;
              sender = tx.Tx.sender;
              value = tx.Tx.value;
              height;
              self_balance = (t_account txn dst).balance;
              charge;
            }
          in
          let storage', actions =
            Obs.with_span "chain.state.exec" (fun () ->
                Contract.run_receive beh ctx info.storage ~payload:tx.Tx.payload)
          in
          let logs = apply_actions txn ~self:dst actions in
          t_set_contract txn dst { info with storage = storage' };
          finish (Ok None) logs)
    with
    | Contract.Revert reason ->
      Obs.Counter.incr m_reverts;
      failed reason
    | Codec.Decode_error reason -> failed ("decode: " ^ reason)
    | e ->
      (* Defensive: a behaviour bug must not fork the simulated network. *)
      failed ("exception: " ^ Printexc.to_string e)
  end

(* A shard's sub-root: SHA-256 of its accounts, then its contracts, each
   section sorted by key and count-prefixed so the encoding is
   prefix-free. *)
let shard_digest shard =
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let w = Codec.writer () in
  Codec.list w
    (fun w (k, (a : account)) ->
      Codec.string w k;
      Codec.u64 w a.balance;
      Codec.u64 w a.nonce)
    (sorted shard.accounts);
  Codec.list w
    (fun w (k, (c : contract_info)) ->
      Codec.string w k;
      Codec.string w c.behavior;
      Codec.bytes w c.storage)
    (sorted shard.contracts);
  let encoding = Codec.to_bytes w in
  Obs.Counter.add m_root_bytes (Bytes.length encoding);
  Sha256.digest encoding

let root t =
  let h = Sha256.init () in
  let hashed = ref 0 in
  Array.iter
    (fun shard ->
      let d =
        match shard.sub_root with
        | Some d -> d
        | None ->
          let d = shard_digest shard in
          shard.sub_root <- Some d;
          incr hashed;
          d
      in
      Sha256.update h d)
    t.shards;
  Obs.Counter.add m_shards_hashed !hashed;
  Sha256.finalize h

let total_supply t =
  Array.fold_left
    (fun acc shard -> Hashtbl.fold (fun _ (a : account) acc -> acc + a.balance) shard.accounts acc)
    0 t.shards
