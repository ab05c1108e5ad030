module Sha256 = Zebra_hashing.Sha256
module Codec = Zebra_codec.Codec

type t = bytes (* 20 bytes *)

let size = 20

let of_digest d = Bytes.sub d (Bytes.length d - size) size

let of_public_key pk = of_digest (Sha256.digest (Zebra_rsa.Rsa.public_key_to_bytes pk))

let of_creator addr nonce =
  let ctx = Sha256.init () in
  Sha256.update_string ctx "contract:";
  Sha256.update ctx addr;
  Sha256.update_string ctx (string_of_int nonce);
  of_digest (Sha256.finalize ctx)

let to_hex = Sha256.to_hex

let equal = Bytes.equal

let to_bytes = Bytes.copy

let of_bytes b =
  if Bytes.length b <> size then invalid_arg "Address.of_bytes: need 20 bytes";
  Bytes.copy b

let write w a = Codec.bytes w a

let read r =
  let b = Codec.read_bytes r in
  if Bytes.length b <> size then raise (Codec.Decode_error "address: need 20 bytes");
  b

let to_field a = Zebra_field.Fp.of_bytes_be a

