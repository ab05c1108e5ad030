module Rsa = Zebra_rsa.Rsa
module Pkcs1 = Zebra_rsa.Pkcs1
module Codec = Zebra_codec.Codec
module Mimc = Zebra_mimc.Mimc

type cert = {
  worker_pk : Rsa.public_key;
  ra_signature : bytes;
}

type attestation = {
  cert : cert;
  signature : bytes;
}

let cert_body pk =
  let w = Codec.writer () in
  Codec.string w "zebralancer-plain-cert";
  Codec.bytes w (Rsa.public_key_to_bytes pk);
  Codec.to_bytes w

let issue ~ra_priv pk = { worker_pk = pk; ra_signature = Pkcs1.sign ra_priv (cert_body pk) }

let cert_valid ~ra_pub cert =
  Pkcs1.verify ra_pub ~msg:(cert_body cert.worker_pk) ~signature:cert.ra_signature

let auth_body ~prefix ~message =
  let w = Codec.writer () in
  Codec.string w "zebralancer-plain-auth";
  Codec.bytes w (Fp.to_bytes_be prefix);
  Codec.bytes w (Fp.to_bytes_be message);
  Codec.to_bytes w

let auth ~priv ~cert ~prefix ~message =
  { cert; signature = Pkcs1.sign priv (auth_body ~prefix ~message) }

let verify ~ra_pub ~prefix ~message att =
  cert_valid ~ra_pub att.cert
  && Pkcs1.verify att.cert.worker_pk ~msg:(auth_body ~prefix ~message) ~signature:att.signature

let tag cert = Mimc.hash_bytes (Rsa.public_key_to_bytes cert.worker_pk)

let attestation_to_bytes att =
  Codec.encode
    (fun w att ->
      Codec.bytes w (Rsa.public_key_to_bytes att.cert.worker_pk);
      Codec.bytes w att.cert.ra_signature;
      Codec.bytes w att.signature)
    att

let attestation_of_bytes b =
  Codec.decode
    (fun r ->
      let worker_pk = Rsa.public_key_of_bytes (Codec.read_bytes r) in
      let ra_signature = Codec.read_bytes r in
      let signature = Codec.read_bytes r in
      { cert = { worker_pk; ra_signature }; signature })
    b
