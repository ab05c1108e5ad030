module Sha256 = Zebra_hashing.Sha256

(* DER DigestInfo prefix for SHA-256 (RFC 8017, section 9.2 notes). *)
let sha256_prefix =
  Bytes.of_string
    "\x30\x31\x30\x0d\x06\x09\x60\x86\x48\x01\x65\x03\x04\x02\x01\x05\x00\x04\x20"

let t_len = Bytes.length sha256_prefix + 32

(* The shortest modulus EMSA-PKCS1-v1_5 with SHA-256 fits: 62 bytes. *)
let min_key_bytes = t_len + 11

let emsa_encode ~k msg =
  let h = Sha256.digest msg in
  if k < min_key_bytes then invalid_arg "Pkcs1: modulus too small";
  let em = Bytes.make k '\xff' in
  Bytes.set em 0 '\x00';
  Bytes.set em 1 '\x01';
  Bytes.set em (k - t_len - 1) '\x00';
  Bytes.blit sha256_prefix 0 em (k - t_len) (Bytes.length sha256_prefix);
  Bytes.blit h 0 em (k - 32) 32;
  em

let sign priv msg =
  let k = Rsa.key_bytes priv.Rsa.pub in
  let em = emsa_encode ~k msg in
  let s = Rsa.raw_private priv (Nat.of_bytes_be em) in
  Nat.to_bytes_be ~len:k s

(* A transaction's sender chooses its key, so the key is checked before
   any arithmetic: the encoding must fit the modulus, and the modulus and
   exponent sizes bound what one verification costs. *)
let acceptable_key (pub : Rsa.public_key) =
  Rsa.key_bytes pub >= min_key_bytes
  && Nat.num_bits pub.n <= 4096
  && (not (Nat.is_even pub.e))
  && Nat.compare pub.e (Nat.of_int 3) >= 0
  && Nat.num_bits pub.e <= 32

let verify pub ~msg ~signature =
  let k = Rsa.key_bytes pub in
  if (not (acceptable_key pub)) || Bytes.length signature <> k then false
  else begin
    match
      let s = Nat.of_bytes_be signature in
      if Nat.compare s pub.Rsa.n >= 0 then None
      else Some (Nat.to_bytes_be ~len:k (Rsa.raw_public pub s))
    with
    | None -> false
    | Some em -> Bytes.equal em (emsa_encode ~k msg)
    | exception Invalid_argument _ -> false
  end
