(* RSA (keygen / PKCS#1) and ElGamal tests. *)

open Zebra_numeric
open Zebra_field
module Rsa = Zebra_rsa.Rsa
module Pkcs1 = Zebra_rsa.Pkcs1
module Elgamal = Zebra_elgamal.Elgamal
module Sha256 = Zebra_hashing.Sha256

let rng = Zebra_rng.Chacha20.create ~seed:"test_crypto"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

(* One 512-bit key shared by most tests (keygen is the slow part). *)
let key = lazy (Rsa.generate ~bits:512 ~random_bytes)

let fp = Alcotest.testable Fp.pp Fp.equal

(* --- RSA --- *)

let test_keygen_shape () =
  let k = Lazy.force key in
  Alcotest.(check int) "modulus bits" 512 (Nat.num_bits k.Rsa.pub.Rsa.n);
  Alcotest.(check bool) "n = p*q" true (Nat.equal k.Rsa.pub.Rsa.n (Nat.mul k.Rsa.p k.Rsa.q));
  Alcotest.(check bool) "p prime" true (Prime.is_prime ~random_bytes k.Rsa.p);
  Alcotest.(check bool) "q prime" true (Prime.is_prime ~random_bytes k.Rsa.q)

let test_raw_roundtrip () =
  let k = Lazy.force key in
  let m = Prime.random_below ~random_bytes k.Rsa.pub.Rsa.n in
  Alcotest.(check bool) "decrypt(encrypt(m)) = m" true
    (Nat.equal m (Rsa.raw_private k (Rsa.raw_public k.Rsa.pub m)))

let test_crt_matches_direct () =
  let k = Lazy.force key in
  let c = Prime.random_below ~random_bytes k.Rsa.pub.Rsa.n in
  let direct =
    let ctx = Modular.create k.Rsa.pub.Rsa.n in
    Modular.pow ctx c k.Rsa.d
  in
  Alcotest.(check bool) "CRT = direct" true (Nat.equal direct (Rsa.raw_private k c))

let test_pubkey_serialization () =
  let k = Lazy.force key in
  let pk' = Rsa.public_key_of_bytes (Rsa.public_key_to_bytes k.Rsa.pub) in
  Alcotest.(check bool) "roundtrip" true (Rsa.equal_public_key k.Rsa.pub pk')

(* The writer emits each field's shortest big-endian form, so a field
   with a leading zero byte would be a second encoding of the same key:
   the reader rejects it, in [n] and in [e]. *)
let test_pubkey_leading_zero_rejected () =
  let module Codec = Zebra_codec.Codec in
  let encode n e =
    Codec.encode
      (fun w () ->
        Codec.bytes w n;
        Codec.bytes w e)
      ()
  in
  let pad b = Bytes.cat (Bytes.make 1 '\000') b in
  let pub = (Lazy.force key).Rsa.pub in
  let n = Nat.to_bytes_be pub.Rsa.n and e = Nat.to_bytes_be pub.Rsa.e in
  Alcotest.(check bool) "the writer's form" true
    (Bytes.equal (encode n e) (Rsa.public_key_to_bytes pub));
  List.iter
    (fun (what, b) ->
      match Rsa.public_key_of_bytes b with
      | _ -> Alcotest.failf "%s with a leading zero byte decoded" what
      | exception Codec.Decode_error _ -> ())
    [ ("n", encode (pad n) e); ("e", encode n (pad e)) ];
  (* What the writer emits still reads back, an empty field (zero)
     included. *)
  List.iter
    (fun e ->
      let k = { pub with Rsa.e } in
      Alcotest.(check bool) "roundtrip" true
        (Rsa.equal_public_key k (Rsa.public_key_of_bytes (Rsa.public_key_to_bytes k))))
    [ pub.Rsa.e; Nat.of_int 3; Nat.of_int 255; Nat.of_int 256; Nat.zero ]

(* Byte-identity KATs for key generation.  Each seed's stream generates
   once, then yields 32 more bytes into the digest, so a change in how
   many bytes generation consumes fails too, not only a changed key. *)
let keygen_digest seeds gen =
  let h = Sha256.init () in
  List.iter
    (fun seed ->
      let random_bytes = Zebra_rng.Chacha20.bytes (Zebra_rng.Chacha20.create ~seed) in
      List.iter (fun x -> Sha256.update h (Nat.to_bytes_be x)) (gen random_bytes);
      Sha256.update h (random_bytes 32))
    seeds;
  Sha256.to_hex (Sha256.finalize h)

let test_prime_generate_kat () =
  Alcotest.(check string) "Prime.generate ~bits:256 digest"
    "3b9ad522afb03fa0eb7d051d926eee60ac2a106a5ae9cb9c633fc1e817f3a8bd"
    (keygen_digest [ "kat-prime-1"; "kat-prime-2" ] (fun random_bytes ->
         [ Prime.generate ~bits:256 ~random_bytes ]))

let test_rsa_generate_kat () =
  Alcotest.(check string) "Rsa.generate ~bits:512 (n, d) digest"
    "596ac41c5d335cda869b6ce04d3b29cba4800335be3d0c61e147b42549096eab"
    (keygen_digest [ "kat-rsa-1"; "kat-rsa-2" ] (fun random_bytes ->
         let k = Rsa.generate ~bits:512 ~random_bytes in
         [ k.Rsa.pub.Rsa.n; k.Rsa.d ]))

(* Primes carry both top bits, so any two of one width multiply to
   exactly twice that width and Rsa.generate never discards a pair for a
   short modulus. *)
let test_prime_top_two_bits () =
  List.iter
    (fun bits ->
      for _ = 1 to 4 do
        let p = Prime.generate ~bits ~random_bytes in
        Alcotest.(check int) (Printf.sprintf "%d-bit prime width" bits) bits (Nat.num_bits p);
        Alcotest.(check bool)
          (Printf.sprintf "%d-bit prime has bit %d set" bits (bits - 2))
          true
          (Nat.testbit p (bits - 2))
      done)
    [ 8; 64; 256 ];
  let p = Prime.generate ~bits:256 ~random_bytes in
  let q = Prime.generate ~bits:256 ~random_bytes in
  Alcotest.(check int) "two 256-bit primes make a 512-bit modulus" 512
    (Nat.num_bits (Nat.mul p q))

(* --- PKCS1 signatures --- *)

let test_sign_verify () =
  let k = Lazy.force key in
  let msg = Bytes.of_string "publish task 42 with budget 1000" in
  let signature = Pkcs1.sign k msg in
  Alcotest.(check bool) "valid" true (Pkcs1.verify k.Rsa.pub ~msg ~signature)

let test_sign_tamper_msg () =
  let k = Lazy.force key in
  let msg = Bytes.of_string "pay worker A" in
  let signature = Pkcs1.sign k msg in
  Alcotest.(check bool) "tampered message rejected" false
    (Pkcs1.verify k.Rsa.pub ~msg:(Bytes.of_string "pay worker B") ~signature)

let test_sign_tamper_sig () =
  let k = Lazy.force key in
  let msg = Bytes.of_string "hello" in
  let signature = Pkcs1.sign k msg in
  Bytes.set signature 5 (Char.chr (Char.code (Bytes.get signature 5) lxor 0x40));
  Alcotest.(check bool) "tampered signature rejected" false
    (Pkcs1.verify k.Rsa.pub ~msg ~signature)

let test_sign_wrong_key () =
  let k = Lazy.force key in
  let other = Rsa.generate ~bits:512 ~random_bytes in
  let msg = Bytes.of_string "hello" in
  let signature = Pkcs1.sign other msg in
  Alcotest.(check bool) "wrong key rejected" false (Pkcs1.verify k.Rsa.pub ~msg ~signature)

let test_sign_garbage () =
  let k = Lazy.force key in
  Alcotest.(check bool) "empty sig" false
    (Pkcs1.verify k.Rsa.pub ~msg:(Bytes.of_string "x") ~signature:Bytes.empty);
  Alcotest.(check bool) "all-ff sig" false
    (Pkcs1.verify k.Rsa.pub ~msg:(Bytes.of_string "x")
       ~signature:(Bytes.make (Rsa.key_bytes k.Rsa.pub) '\xff'))

(* The verifier bounds the public exponent, which the sender picks: a
   genuine signature under e >= 2^32 is refused without exponentiating. *)
let test_verify_rejects_huge_exponent () =
  let k = Lazy.force key in
  let p1 = Nat.sub k.Rsa.p Nat.one and q1 = Nat.sub k.Rsa.q Nat.one in
  let lambda = Nat.div (Nat.mul p1 q1) (Nat.gcd p1 q1) in
  let rec pick e =
    match Nat.inverse e lambda with
    | d -> (e, d)
    | exception Division_by_zero -> pick (Nat.add e Nat.two)
  in
  let e, d = pick (Nat.add (Nat.shift_left Nat.one 32) Nat.one) in
  let priv =
    { k with Rsa.pub = { k.Rsa.pub with Rsa.e }; d; dp = Nat.rem d p1; dq = Nat.rem d q1 }
  in
  let msg = Bytes.of_string "huge exponent" in
  let signature = Pkcs1.sign priv msg in
  let em = Nat.to_bytes_be ~len:64 (Rsa.raw_public priv.Rsa.pub (Nat.of_bytes_be signature)) in
  Alcotest.(check bytes) "s^e opens to the EMSA header" (Bytes.of_string "\x00\x01\xff")
    (Bytes.sub em 0 3);
  Alcotest.(check bytes) "s^e opens to the message hash" (Sha256.digest msg) (Bytes.sub em 32 32);
  Alcotest.(check bool) "e >= 2^32 rejected" false (Pkcs1.verify priv.Rsa.pub ~msg ~signature)

(* --- ElGamal --- *)

let test_elgamal_roundtrip () =
  let sk, pk = Elgamal.generate ~random_bytes in
  let m = Elgamal.encode_answer 3 in
  let ct = Elgamal.encrypt ~random_bytes pk m in
  Alcotest.check fp "roundtrip" m (Elgamal.decrypt sk ct)

let test_elgamal_randomized () =
  let _, pk = Elgamal.generate ~random_bytes in
  let m = Elgamal.encode_answer 1 in
  let c1 = Elgamal.encrypt ~random_bytes pk m in
  let c2 = Elgamal.encrypt ~random_bytes pk m in
  Alcotest.(check bool) "ciphertexts differ" false (Elgamal.equal_ciphertext c1 c2)

let test_elgamal_pair () =
  let sk, pk = Elgamal.generate ~random_bytes in
  let sk', _ = Elgamal.generate ~random_bytes in
  Alcotest.(check bool) "matching pair" true (Fp.equal (Elgamal.public_key sk) pk);
  Alcotest.(check bool) "mismatched pair" false (Fp.equal (Elgamal.public_key sk') pk)

let test_elgamal_wrong_key () =
  let _, pk = Elgamal.generate ~random_bytes in
  let sk', _ = Elgamal.generate ~random_bytes in
  let m = Elgamal.encode_answer 2 in
  let ct = Elgamal.encrypt ~random_bytes pk m in
  Alcotest.(check bool) "wrong key garbles" false (Fp.equal m (Elgamal.decrypt sk' ct))

let test_elgamal_secret_bits () =
  let sk, pk = Elgamal.generate ~random_bytes in
  let bits = Elgamal.secret_bits sk in
  Alcotest.(check int) "bit width" Elgamal.exponent_bits (Array.length bits);
  (* reconstruct pk from bits: g^(sum b_i 2^i) *)
  let acc = ref Fp.one in
  for i = Array.length bits - 1 downto 0 do
    acc := Fp.sqr !acc;
    if bits.(i) then acc := Fp.mul !acc Elgamal.g
  done;
  Alcotest.check fp "bits reconstruct pk" pk !acc

let test_answer_encoding () =
  Alcotest.(check (option int)) "decode 0" (Some 0) (Elgamal.decode_answer ~max:9 (Elgamal.encode_answer 0));
  Alcotest.(check (option int)) "decode 9" (Some 9) (Elgamal.decode_answer ~max:9 (Elgamal.encode_answer 9));
  Alcotest.(check (option int)) "out of range" None (Elgamal.decode_answer ~max:3 (Elgamal.encode_answer 7));
  Alcotest.(check bool) "nonzero encoding" false (Fp.is_zero (Elgamal.encode_answer 0))

let test_missing_sentinel () =
  Alcotest.(check bool) "missing is missing" true (Elgamal.is_missing Elgamal.missing);
  let _, pk = Elgamal.generate ~random_bytes in
  let ct = Elgamal.encrypt ~random_bytes pk (Elgamal.encode_answer 0) in
  Alcotest.(check bool) "real ct is not missing" false (Elgamal.is_missing ct)

let test_ciphertext_serialization () =
  let _, pk = Elgamal.generate ~random_bytes in
  let ct = Elgamal.encrypt ~random_bytes pk (Elgamal.encode_answer 5) in
  Alcotest.(check bool) "roundtrip" true
    (Elgamal.equal_ciphertext ct (Elgamal.ciphertext_of_bytes (Elgamal.ciphertext_to_bytes ct)))

let () =
  Alcotest.run "crypto"
    [
      ( "rsa",
        [
          Alcotest.test_case "keygen shape" `Quick test_keygen_shape;
          Alcotest.test_case "raw roundtrip" `Quick test_raw_roundtrip;
          Alcotest.test_case "CRT matches direct" `Quick test_crt_matches_direct;
          Alcotest.test_case "pubkey serialisation" `Quick test_pubkey_serialization;
          Alcotest.test_case "pubkey leading zero rejected" `Quick
            test_pubkey_leading_zero_rejected;
          Alcotest.test_case "Prime.generate KAT" `Quick test_prime_generate_kat;
          Alcotest.test_case "Rsa.generate KAT" `Quick test_rsa_generate_kat;
          Alcotest.test_case "primes have both top bits" `Quick test_prime_top_two_bits;
        ] );
      ( "pkcs1",
        [
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "tampered message" `Quick test_sign_tamper_msg;
          Alcotest.test_case "tampered signature" `Quick test_sign_tamper_sig;
          Alcotest.test_case "wrong key" `Quick test_sign_wrong_key;
          Alcotest.test_case "garbage signatures" `Quick test_sign_garbage;
          Alcotest.test_case "exponent >= 2^32 rejected" `Quick test_verify_rejects_huge_exponent;
        ] );
      ( "elgamal",
        [
          Alcotest.test_case "roundtrip" `Quick test_elgamal_roundtrip;
          Alcotest.test_case "randomised" `Quick test_elgamal_randomized;
          Alcotest.test_case "pair check" `Quick test_elgamal_pair;
          Alcotest.test_case "wrong key" `Quick test_elgamal_wrong_key;
          Alcotest.test_case "secret bits" `Quick test_elgamal_secret_bits;
          Alcotest.test_case "answer encoding" `Quick test_answer_encoding;
          Alcotest.test_case "missing sentinel" `Quick test_missing_sentinel;
          Alcotest.test_case "ciphertext serialisation" `Quick test_ciphertext_serialization;
        ] );
    ]
