(* SHA-256 / ChaCha20 / Merkle tests, including FIPS and RFC vectors. *)

open Zebra_hashing

let qtest name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- SHA-256 FIPS 180-4 vectors --- *)

let vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( String.make 1000000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) "digest" expected (Sha256.to_hex (Sha256.digest_string input)))
    vectors

let test_sha256_incremental () =
  (* Chunked updates must agree with the one-shot digest. *)
  let data = String.init 10000 (fun i -> Char.chr (i mod 251)) in
  let one_shot = Sha256.digest_string data in
  let sizes = [ 1; 7; 63; 64; 65; 128; 1000 ] in
  List.iter
    (fun sz ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      while !pos < String.length data do
        let take = min sz (String.length data - !pos) in
        Sha256.update_string ctx (String.sub data !pos take);
        pos := !pos + take
      done;
      Alcotest.(check bytes) (Printf.sprintf "chunk %d" sz) one_shot (Sha256.finalize ctx))
    sizes

(* Padding fixtures: the digests of one byte pattern at the lengths around
   each padding case (length fits in the last block, 0x80 fills it, the
   length spills into a second block, whole blocks).  The literals come
   from Python's hashlib, an implementation outside this repository. *)
let pattern n = String.init n (fun i -> Char.chr (i mod 251))

let padding_vectors =
  [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
    (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
    (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
    (57, "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f");
    (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
    (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
    (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
    (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
    (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
    (127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976");
    (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
    (129, "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135");
    (1000, "4e4c294b331f7a2099a379bec34b9f9fc03dc46ab465d998f4d683da53487e6d");
  ]

let test_sha256_padding () =
  List.iter
    (fun (n, expected) ->
      Alcotest.(check string) (Printf.sprintf "length %d" n) expected
        (Sha256.to_hex (Sha256.digest_string (pattern n))))
    padding_vectors

(* Every length from 0 to 300 at once: the digest of the 301 digests of
   [pattern 0] .. [pattern 300], concatenated (hashlib, as above). *)
let test_sha256_lengths_kat () =
  let h = Sha256.init () in
  for n = 0 to 300 do
    Sha256.update h (Sha256.digest_string (pattern n))
  done;
  Alcotest.(check string) "digest of digests 0..300"
    "b90e35153500e9a471591550ee25a954527c6b4448afff95f7949a2ca93300ce"
    (Sha256.to_hex (Sha256.finalize h))

let prop_sha256_split =
  qtest "split updates equal one-shot"
    QCheck2.Gen.(pair (string_size (int_bound 300)) (list_size (int_bound 7) (int_bound 300)))
    (fun (msg, cuts) ->
      let n = String.length msg in
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
      let ctx = Sha256.init () in
      let last =
        List.fold_left
          (fun pos cut ->
            Sha256.update_string ctx (String.sub msg pos (cut - pos));
            cut)
          0 cuts
      in
      Sha256.update_string ctx (String.sub msg last (n - last));
      Bytes.equal (Sha256.finalize ctx) (Sha256.digest_string msg))

let test_hex_roundtrip () =
  let d = Sha256.digest_string "zebra" in
  Alcotest.(check bytes) "hex roundtrip" d (Sha256.of_hex (Sha256.to_hex d))

(* --- ChaCha20 RFC 8439 vector --- *)

let test_chacha20_block () =
  let key = Bytes.init 32 Char.chr in
  let nonce = Sha256.of_hex "000000090000004a00000000" in
  let block = Zebra_rng.Chacha20.block ~key ~counter:1l ~nonce in
  Alcotest.(check string) "rfc8439 2.3.2"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Sha256.to_hex block)

let test_chacha20_determinism () =
  let mk () = Zebra_rng.Chacha20.create ~seed:"abc" in
  let a = Zebra_rng.Chacha20.bytes (mk ()) 100 in
  let b = Zebra_rng.Chacha20.bytes (mk ()) 100 in
  Alcotest.(check bytes) "same seed same stream" a b;
  let c = Zebra_rng.Chacha20.bytes (Zebra_rng.Chacha20.create ~seed:"abd") 100 in
  Alcotest.(check bool) "different seed differs" false (Bytes.equal a c)

(* Byte-identity KAT: one stream read in chunks that start and end inside
   blocks and cross block boundaries (1+31+64+65+200 = 361 bytes). *)
let test_chacha20_stream_kat () =
  let t = Zebra_rng.Chacha20.create ~seed:"kat-chacha20" in
  let h = Sha256.init () in
  List.iter (fun n -> Sha256.update h (Zebra_rng.Chacha20.bytes t n)) [ 1; 31; 64; 65; 200 ];
  Alcotest.(check string) "chunked keystream digest"
    "8fbffc15dd180148e57a8796451246b6f09e9769099c4f499ee08e6cb0a132de"
    (Sha256.to_hex (Sha256.finalize h))

(* --- Merkle --- *)

let leaves_of n = List.init n (fun i -> Bytes.of_string (Printf.sprintf "leaf-%d" i))

let test_merkle_proof_all_sizes () =
  List.iter
    (fun n ->
      let leaves = leaves_of n in
      let root = Merkle.root leaves in
      List.iteri
        (fun i leaf ->
          let proof = Merkle.proof leaves i in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d i=%d" n i)
            true
            (Merkle.verify ~root ~leaf proof))
        leaves)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 17 ]

let test_merkle_reject_wrong_leaf () =
  let leaves = leaves_of 8 in
  let root = Merkle.root leaves in
  let proof = Merkle.proof leaves 3 in
  Alcotest.(check bool) "wrong leaf rejected" false
    (Merkle.verify ~root ~leaf:(Bytes.of_string "forged") proof)

let test_merkle_reject_wrong_position () =
  let leaves = leaves_of 8 in
  let root = Merkle.root leaves in
  let proof = Merkle.proof leaves 3 in
  Alcotest.(check bool) "leaf at wrong position rejected" false
    (Merkle.verify ~root ~leaf:(List.nth leaves 4) proof)

let test_merkle_root_changes () =
  let r1 = Merkle.root (leaves_of 8) in
  let leaves' = List.mapi (fun i l -> if i = 5 then Bytes.of_string "tampered" else l) (leaves_of 8) in
  Alcotest.(check bool) "tamper changes root" false (Bytes.equal r1 (Merkle.root leaves'))

let prop_merkle_sound =
  qtest "random tree proofs verify"
    QCheck2.Gen.(pair (int_range 1 40) (int_bound 1000))
    (fun (n, salt) ->
      let leaves = List.init n (fun i -> Bytes.of_string (Printf.sprintf "%d-%d" salt i)) in
      let root = Merkle.root leaves in
      List.for_all
        (fun i -> Merkle.verify ~root ~leaf:(List.nth leaves i) (Merkle.proof leaves i))
        (List.init n Fun.id))

let () =
  Alcotest.run "hashing"
    [
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "incremental" `Quick test_sha256_incremental;
          Alcotest.test_case "padding lengths" `Quick test_sha256_padding;
          Alcotest.test_case "lengths 0..300 KAT" `Quick test_sha256_lengths_kat;
          prop_sha256_split;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
        ] );
      ( "chacha20",
        [
          Alcotest.test_case "RFC 8439 block" `Quick test_chacha20_block;
          Alcotest.test_case "determinism" `Quick test_chacha20_determinism;
          Alcotest.test_case "stream KAT (chunked reads)" `Quick test_chacha20_stream_kat;
        ] );
      ( "merkle",
        [
          Alcotest.test_case "proofs verify (sizes)" `Quick test_merkle_proof_all_sizes;
          Alcotest.test_case "wrong leaf rejected" `Quick test_merkle_reject_wrong_leaf;
          Alcotest.test_case "wrong position rejected" `Quick test_merkle_reject_wrong_position;
          Alcotest.test_case "tamper changes root" `Quick test_merkle_root_changes;
          prop_merkle_sound;
        ] );
    ]
