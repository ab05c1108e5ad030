module Codec = Zebra_codec.Codec

type secret_key = Nat.t

type public_key = Fp.t

type ciphertext = { c1 : Fp.t; c2 : Fp.t }

let g = Fp.generator
let exponent_bits = 253

let random_exponent ~random_bytes =
  let x = Prime.random_bits ~random_bytes exponent_bits in
  if Nat.is_zero x then Nat.one else x

let public_key sk = Fp.pow g sk

let generate ~random_bytes =
  let sk = random_exponent ~random_bytes in
  (sk, public_key sk)

let secret_bits sk = Array.init exponent_bits (Nat.testbit sk)
let secret_canary sk = Nat.to_bytes_be sk

let encrypt ~random_bytes epk m =
  if Fp.is_zero m then invalid_arg "Elgamal.encrypt: zero plaintext";
  let k = random_exponent ~random_bytes in
  { c1 = Fp.pow g k; c2 = Fp.mul m (Fp.pow epk k) }

let decrypt sk ct = Fp.mul ct.c2 (Fp.inv (Fp.pow ct.c1 sk))

let encode_answer a =
  if a < 0 then invalid_arg "Elgamal.encode_answer: negative";
  Fp.of_int (a + 1)

let decode_answer ~max m =
  let rec find a = if a > max then None else if Fp.equal m (encode_answer a) then Some a else find (a + 1) in
  find 0

let missing = { c1 = Fp.zero; c2 = Fp.zero }
let is_missing ct = Fp.is_zero ct.c1

let ciphertext_to_bytes ct =
  Codec.encode
    (fun w ct ->
      Fp.write w ct.c1;
      Fp.write w ct.c2)
    ct

let ciphertext_of_bytes b =
  Codec.decode
    (fun r ->
      let c1 = Fp.read r in
      let c2 = Fp.read r in
      { c1; c2 })
    b

let equal_ciphertext a b = Fp.equal a.c1 b.c1 && Fp.equal a.c2 b.c2
