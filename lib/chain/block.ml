module Sha256 = Zebra_hashing.Sha256
module Merkle = Zebra_hashing.Merkle
module Codec = Zebra_codec.Codec

type header = {
  height : int;
  prev_hash : bytes;
  state_root : bytes;
  tx_root : bytes;
}

type t = { header : header; txs : Tx.t list; hash : bytes }

let genesis_hash = Sha256.digest_string "zebralancer-genesis"

let tx_root txs = Merkle.root (List.map Tx.to_bytes txs)

let hash_header h =
  let w = Codec.writer () in
  Codec.u64 w h.height;
  Codec.bytes w h.prev_hash;
  Codec.bytes w h.state_root;
  Codec.bytes w h.tx_root;
  (* a zero word where a proof-of-work seal would sit: dropping it would
     move every block hash, and with them every fork-choice tie-break *)
  Codec.u64 w 0;
  Sha256.digest (Codec.to_bytes w)

let hash b = b.hash

let make ~height ~prev_hash ~state_root txs =
  let header = { height; prev_hash; state_root; tx_root = tx_root txs } in
  { header; txs; hash = hash_header header }

let tx_proof b i = Merkle.proof (List.map Tx.to_bytes b.txs) i
