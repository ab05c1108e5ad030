module Codec = Zebra_codec.Codec
module Rsa = Zebra_rsa.Rsa
module Pkcs1 = Zebra_rsa.Pkcs1
module Sha256 = Zebra_hashing.Sha256
module Obs = Zebra_obs.Obs

let m_signature_checks = Obs.Counter.make "chain.tx.signature_checks"

type dst =
  | Create of { behavior : string; args : bytes }
  | Call of Address.t

type t = {
  sender : Address.t;
  sender_pk : Rsa.public_key;
  nonce : int;
  dst : dst;
  value : int;
  fee : int;
  payload : bytes;
  signature : bytes;
  hash : bytes;
  size : int;
}

let write_unsigned w (tx : t) =
  Address.write w tx.sender;
  Codec.bytes w (Rsa.public_key_to_bytes tx.sender_pk);
  Codec.u64 w tx.nonce;
  (match tx.dst with
  | Create { behavior; args } ->
    Codec.u8 w 0;
    Codec.string w behavior;
    Codec.bytes w args
  | Call addr ->
    Codec.u8 w 1;
    Address.write w addr);
  Codec.u64 w tx.value;
  Codec.u64 w tx.fee;
  Codec.bytes w tx.payload

let signing_bytes tx = Codec.encode write_unsigned tx

let to_bytes tx =
  Codec.encode
    (fun w tx ->
      write_unsigned w tx;
      Codec.bytes w tx.signature)
    tx

(* Every constructor ends here: the encoding is computed once per value,
   for its hash and its length. *)
let with_hash tx =
  let b = to_bytes tx in
  { tx with hash = Sha256.digest b; size = Bytes.length b }

let sign wallet unsigned =
  with_hash { unsigned with signature = Wallet.sign wallet (signing_bytes unsigned) }

let make_ext ~wallet ~fee ~footprint ~nonce ~dst ~value ~payload =
  if value < 0 then invalid_arg "Tx.make: negative value";
  if fee < 0 then invalid_arg "Tx.make: negative fee";
  if footprint <> [] then invalid_arg "Tx.make_ext: a transaction declares no footprint";
  sign wallet
    {
      sender = Wallet.address wallet;
      sender_pk = Wallet.public_key wallet;
      nonce;
      dst;
      value;
      fee;
      payload;
      signature = Bytes.empty;
      hash = Bytes.empty;
      size = 0;
    }

let make ~wallet ~nonce ~dst ~value ~payload =
  make_ext ~wallet ~fee:0 ~footprint:[] ~nonce ~dst ~value ~payload

let validate tx =
  Obs.Counter.incr m_signature_checks;
  tx.fee >= 0 && tx.value >= 0
  && Address.equal tx.sender (Address.of_public_key tx.sender_pk)
  && Pkcs1.verify tx.sender_pk ~msg:(signing_bytes tx) ~signature:tx.signature

let of_bytes b =
  Codec.decode
    (fun r ->
      let sender = Address.read r in
      let sender_pk = Rsa.public_key_of_bytes (Codec.read_bytes r) in
      let nonce = Codec.read_u64 r in
      let dst =
        match Codec.read_u8 r with
        | 0 ->
          let behavior = Codec.read_string r in
          let args = Codec.read_bytes r in
          Create { behavior; args }
        | 1 -> Call (Address.read r)
        | _ -> raise (Codec.Decode_error "tx: bad dst tag")
      in
      let value = Codec.read_u64 r in
      let fee = Codec.read_u64 r in
      let payload = Codec.read_bytes r in
      let signature = Codec.read_bytes r in
      let hash = Bytes.empty and size = 0 in
      { sender; sender_pk; nonce; dst; value; fee; payload; signature; hash; size })
    b
  |> with_hash

let hash tx = tx.hash

let size_bytes tx = tx.size

let resend_as ~wallet ~nonce tx =
  sign wallet
    { tx with sender = Wallet.address wallet; sender_pk = Wallet.public_key wallet; nonce }
