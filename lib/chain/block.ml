module Sha256 = Zebra_hashing.Sha256
module Merkle = Zebra_hashing.Merkle
module Codec = Zebra_codec.Codec

type header = {
  height : int;
  prev_hash : bytes;
  state_root : bytes;
  tx_root : bytes;
  nonce : int;
}

type t = { header : header; txs : Tx.t list }

let genesis_hash = Sha256.digest_string "zebralancer-genesis"

let tx_root txs = Merkle.root (List.map Tx.to_bytes txs)

let hash_header h =
  let w = Codec.writer () in
  Codec.u64 w h.height;
  Codec.bytes w h.prev_hash;
  Codec.bytes w h.state_root;
  Codec.bytes w h.tx_root;
  Codec.u64 w h.nonce;
  Sha256.digest (Codec.to_bytes w)

let leading_zero_bits digest =
  let n = Bytes.length digest in
  let rec go i acc =
    if i >= n then acc
    else begin
      let b = Char.code (Bytes.get digest i) in
      if b = 0 then go (i + 1) (acc + 8)
      else begin
        let rec top k = if b lsr (7 - k) land 1 = 1 then k else top (k + 1) in
        acc + top 0
      end
    end
  in
  go 0 0

let meets_difficulty h d = d <= 0 || leading_zero_bits (hash_header h) >= d

let hash b = hash_header b.header

let make ?(difficulty = 0) ~height ~prev_hash ~state_root txs =
  let base = { height; prev_hash; state_root; tx_root = tx_root txs; nonce = 0 } in
  let rec grind nonce =
    let h = { base with nonce } in
    if meets_difficulty h difficulty then h else grind (nonce + 1)
  in
  { header = grind 0; txs }


let validate ?(difficulty = 0) ~prev_hash ~prev_height b =
  if b.header.height <> prev_height + 1 then Error "bad height"
  else if not (Bytes.equal b.header.prev_hash prev_hash) then Error "bad parent"
  else if not (Bytes.equal b.header.tx_root (tx_root b.txs)) then Error "bad tx root"
  else if not (meets_difficulty b.header difficulty) then Error "insufficient proof of work"
  else if not (List.for_all Tx.validate b.txs) then Error "invalid transaction signature"
  else Ok ()

let tx_proof b i = Merkle.proof (List.map Tx.to_bytes b.txs) i
