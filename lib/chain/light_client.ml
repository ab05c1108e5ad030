module Merkle = Zebra_hashing.Merkle

type t = { mutable headers : Block.header list (* newest first *) }

let create () = { headers = [] }

let height t = match t.headers with [] -> 0 | h :: _ -> h.Block.height

let tip_hash t =
  match t.headers with
  | [] -> Block.genesis_hash
  | h :: _ -> Block.hash_header h

let push_header t (h : Block.header) =
  if h.Block.height <> height t + 1 then Error "bad height"
  else if not (Bytes.equal h.Block.prev_hash (tip_hash t)) then Error "bad parent"
  else begin
    t.headers <- h :: t.headers;
    Ok ()
  end

let sync t blocks =
  List.fold_left
    (fun acc (b : Block.t) ->
      match acc with
      | Error _ as e -> e
      | Ok () -> push_header t b.Block.header)
    (Ok ()) blocks

let header_at t ~height:h =
  List.find_opt (fun (hd : Block.header) -> hd.Block.height = h) t.headers

let verify_inclusion t ~height tx proof =
  match header_at t ~height with
  | None -> false
  | Some hd -> Merkle.verify ~root:hd.Block.tx_root ~leaf:(Tx.to_bytes tx) proof

let state_root t ~height =
  Option.map (fun (hd : Block.header) -> hd.Block.state_root) (header_at t ~height)
