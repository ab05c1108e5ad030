(* Codec unit tests and decoder fuzzing: every deserialiser in the system
   must fail cleanly (Decode_error), never crash or loop, on arbitrary
   bytes. *)

module Codec = Zebra_codec.Codec

let rng = Zebra_rng.Chacha20.create ~seed:"test_codec"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let qtest name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- basic roundtrips --- *)

let test_scalar_roundtrips () =
  let b =
    Codec.encode
      (fun w () ->
        Codec.u8 w 200;
        Codec.u32 w 0xdeadbeef;
        Codec.u64 w 123456789012345;
        Codec.string w "zebra";
        Codec.list w Codec.u8 [ 1; 2; 3 ];
        Codec.array w Codec.u8 [| 4; 5 |])
      ()
  in
  Codec.decode
    (fun r ->
      Alcotest.(check int) "u8" 200 (Codec.read_u8 r);
      Alcotest.(check int) "u32" 0xdeadbeef (Codec.read_u32 r);
      Alcotest.(check int) "u64" 123456789012345 (Codec.read_u64 r);
      Alcotest.(check string) "string" "zebra" (Codec.read_string r);
      Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.read_list r Codec.read_u8);
      Alcotest.(check (array int)) "array" [| 4; 5 |] (Codec.read_array r Codec.read_u8))
    b

let test_trailing_bytes_rejected () =
  let b = Bytes.of_string "\x01\x02" in
  Alcotest.check_raises "trailing" (Codec.Decode_error "trailing bytes") (fun () ->
      ignore (Codec.decode (fun r -> Codec.read_u8 r) b))

let test_truncated_rejected () =
  Alcotest.check_raises "truncated" (Codec.Decode_error "unexpected end of input") (fun () ->
      ignore (Codec.decode (fun r -> Codec.read_u32 r) (Bytes.of_string "\x01")))

let test_range_checks () =
  let w = Codec.writer () in
  Alcotest.check_raises "u8 range" (Invalid_argument "Codec.u8") (fun () -> Codec.u8 w 256);
  Alcotest.check_raises "u32 range" (Invalid_argument "Codec.u32") (fun () ->
      Codec.u32 w (-1));
  (* The reader keeps the writer's bound, 2^62: a top bit that would be
     shifted out of the native int is an error, not a smaller value. *)
  let read_u64 s = Codec.decode Codec.read_u64 (Bytes.of_string s) in
  List.iter
    (fun s ->
      Alcotest.check_raises "u64 >= 2^62 rejected"
        (Codec.Decode_error "u64 out of native range") (fun () -> ignore (read_u64 s)))
    [ "\x80\x00\x00\x00\x00\x00\x00\x05"; "\xc0\x00\x00\x00\x00\x00\x00\x00" ];
  Alcotest.(check string) "max_int is what u64 writes" "\x3f\xff\xff\xff\xff\xff\xff\xff"
    (Bytes.to_string (Codec.encode Codec.u64 max_int));
  Alcotest.(check int) "max_int reads back" max_int
    (read_u64 "\x3f\xff\xff\xff\xff\xff\xff\xff")

(* Eight bytes claiming 2^24 u32 elements: the count is checked against
   the input left before anything is allocated for the elements. *)
let test_count_prefix_bounded () =
  let b = Bytes.of_string "\x01\x00\x00\x00\x00\x00\x00\x07" in
  let decodes_to_error read =
    match Codec.decode read b with
    | _ -> false
    | exception Codec.Decode_error _ -> true
  in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let array_rejected = decodes_to_error (fun r -> Codec.read_array r Codec.read_u32) in
  let list_rejected = decodes_to_error (fun r -> Codec.read_list r Codec.read_u32) in
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "array count rejected" true array_rejected;
  Alcotest.(check bool) "list count rejected" true list_rejected;
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f B, under 1 MiB" allocated)
    true (allocated < 1048576.)

(* --- fuzzing every decoder in the system --- *)

(* A decoder survives a buffer if it returns or raises the one declared
   failure, Decode_error; anything else is a bug. *)
let survives decode buf =
  match decode buf with
  | _ -> true
  | exception Codec.Decode_error _ -> true
  | exception _ -> false

let gen_bytes =
  QCheck2.Gen.map
    (fun (n, seed) ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "fuzz-%d" seed) in
      Zebra_rng.Chacha20.bytes r n)
    QCheck2.Gen.(pair (int_range 0 600) (int_bound 1_000_000))

(* Mutations of valid encodings reach deeper branches than pure noise. *)
let mutated valid =
  QCheck2.Gen.map
    (fun (pos, delta) ->
      let b = Bytes.copy valid in
      if Bytes.length b = 0 then b
      else begin
        let i = pos mod Bytes.length b in
        Bytes.set b i (Char.chr ((Char.code (Bytes.get b i) + 1 + delta) land 0xff));
        b
      end)
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 254))

let fuzz name decode =
  qtest ("noise: " ^ name) gen_bytes (fun b -> survives decode b)

let fuzz_mutated name valid decode =
  qtest ("mutate: " ^ name) (mutated valid) (fun b -> survives decode b)

(* Valid specimens for mutation. *)
let specimen_policy = Zebralancer.Policy.to_bytes (Zebralancer.Policy.Majority { choices = 4 })

let specimen_params =
  Zebralancer.Task_contract.params_to_bytes
    {
      Zebralancer.Task_contract.budget = 100;
      n = 2;
      answer_deadline = 10;
      instruct_deadline = 20;
      epk = Zebra_field.Fp.one;
      ra_root = Zebra_field.Fp.two;
      auth_vk = random_bytes 40;
      reward_vk = random_bytes 40;
      policy = Zebralancer.Policy.Majority { choices = 4 };
      requester_attestation = random_bytes 30;
      max_per_worker = 1;
      ra_rsa_pub = Bytes.empty;
      data_digest = Bytes.empty;
    }

let specimen_ct =
  let _, pk = Zebra_elgamal.Elgamal.generate ~random_bytes in
  Zebra_elgamal.Elgamal.ciphertext_to_bytes
    (Zebra_elgamal.Elgamal.encrypt ~random_bytes pk (Zebra_elgamal.Elgamal.encode_answer 1))

(* --- canonical decoding: one encoding per mined byte ---

   Every transaction the canonical scenario mined (transfers, deploys,
   proof-carrying submissions, the instruction, a Finalize and the
   reputation calls), and every field of those transactions that a
   contract decodes, mutated by a ChaCha20 stream.  A mutated buffer
   must either raise [Decode_error] or be the one encoding of what it
   decodes to: re-encoding gives back the same bytes, and a transaction's
   hash is SHA-256 of them.  A second encoding of one transaction would
   carry the same hash and a valid signature. *)

module Tx = Zebra_chain.Tx
module Task_contract = Zebralancer.Task_contract
module Reputation_contract = Zebralancer.Reputation_contract

let scenario = lazy (Zebralancer.Scenario.build ())

let scenario_txs () =
  let net = (Lazy.force scenario).Zebralancer.Scenario.sys.Zebralancer.Protocol.net in
  List.concat_map
    (fun (b : Zebra_chain.Block.t) -> b.Zebra_chain.Block.txs)
    (Zebra_chain.Network.blocks net)

(* Offsets of the u32 length prefixes in [tx]'s encoding: the sender,
   its key, the Create behaviour and args or the Call address, the
   payload and the signature. *)
let length_prefixes (tx : Tx.t) =
  let nonce = 28 + Bytes.length (Zebra_rsa.Rsa.public_key_to_bytes tx.Tx.sender_pk) in
  let tag = nonce + 8 in
  let dst, after_dst =
    match tx.Tx.dst with
    | Tx.Create { behavior; args } ->
      let args_at = tag + 5 + String.length behavior in
      ([ tag + 1; args_at ], args_at + 4 + Bytes.length args)
    | Tx.Call _ -> ([ tag + 1 ], tag + 25)
  in
  let payload = after_dst + 16 in
  (0 :: 24 :: dst) @ [ payload; payload + 4 + Bytes.length tx.Tx.payload ]

let get_u32 b i = Codec.decode Codec.read_u32 (Bytes.sub b i 4)

let u32_bytes v = Codec.encode Codec.u32 (v land 0xffffffff)

(* [b] with the u32 prefix at [at] rewritten to [v] and [inserted] put in
   front of the field it counts. *)
let with_prefix b at v inserted =
  Bytes.concat Bytes.empty
    [ Bytes.sub b 0 at; u32_bytes v; inserted; Bytes.sub b (at + 4) (Bytes.length b - at - 4) ]

(* One mutation of [b], drawn by [int n] (uniform below [n]): a bit flip,
   a truncation, a splice onto the tail of one of [others], or, at one of
   the length prefixes [prefixes], an inflated length or a zero byte put
   in front of the field. *)
let mutate int ~prefixes ~others b =
  let len = Bytes.length b and n = Array.length prefixes in
  let at = if n = 0 then 0 else prefixes.(int n) in
  match int (if n = 0 then 3 else 5) with
  | 0 ->
    let b = Bytes.copy b and j = int len in
    Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor (1 lsl int 8)));
    ("bit flip", b)
  | 1 -> ("truncation", Bytes.sub b 0 (int len))
  | 2 ->
    let other = others.(int (Array.length others)) in
    let cut = int (len + 1) and from = int (Bytes.length other + 1) in
    ("splice", Bytes.cat (Bytes.sub b 0 cut) (Bytes.sub other from (Bytes.length other - from)))
  | 3 ->
    let v = if int 4 = 0 then 0xffffffff else get_u32 b at + 1 + int 255 in
    ("inflated length", with_prefix b at v Bytes.empty)
  | _ ->
    ( "zero byte in a length-prefixed field",
      with_prefix b at (get_u32 b at + 1) (Bytes.make 1 '\000') )

let chacha_int seed =
  let r = Zebra_rng.Chacha20.create ~seed in
  fun n -> get_u32 (Zebra_rng.Chacha20.bytes r 4) 0 mod n

let test_tx_canonical_decoding () =
  let txs = Array.of_list (scenario_txs ()) in
  let wire = Array.map Tx.to_bytes txs in
  Array.iteri
    (fun i tx ->
      let sig_at = List.hd (List.rev (length_prefixes tx)) in
      Alcotest.(check int)
        (Printf.sprintf "tx %d: the signature prefix ends the encoding" i)
        (Bytes.length wire.(i))
        (sig_at + 4 + Bytes.length tx.Tx.signature))
    txs;
  let int = chacha_int "test_codec/canonical-tx" in
  for k = 1 to 3_000 do
    let i = int (Array.length txs) in
    let prefixes = Array.of_list (length_prefixes txs.(i)) in
    let what, b = mutate int ~prefixes ~others:wire wire.(i) in
    match Tx.of_bytes b with
    | exception Codec.Decode_error _ -> ()
    | exception e -> Alcotest.failf "iteration %d (%s of tx %d): %s" k what i (Printexc.to_string e)
    | tx ->
      if not (Bytes.equal (Tx.to_bytes tx) b && Bytes.equal (Tx.hash tx) (Zebra_hashing.Sha256.digest b))
      then Alcotest.failf "iteration %d (%s of tx %d): a second encoding decoded" k what i
  done

(* The decoders a mined transaction's bytes reach, each as [bytes ->
   bytes]: decode, then re-encode. *)
let recoders =
  let recode of_bytes to_bytes b = to_bytes (of_bytes b) in
  [
    ("task params", recode Task_contract.params_of_bytes Task_contract.params_to_bytes);
    ("task message", recode Task_contract.message_of_bytes Task_contract.message_to_bytes);
    ( "reputation message",
      recode Reputation_contract.message_of_bytes Reputation_contract.message_to_bytes );
    ("snark vk", recode Zebra_snark.Snark.vk_of_bytes Zebra_snark.Snark.vk_to_bytes);
    ("snark proof", recode Zebra_snark.Snark.proof_of_bytes Zebra_snark.Snark.proof_to_bytes);
    ( "cpla attestation",
      recode Zebra_anonauth.Cpla.attestation_of_bytes Zebra_anonauth.Cpla.attestation_to_bytes );
    ( "elgamal ciphertext",
      recode Zebra_elgamal.Elgamal.ciphertext_of_bytes Zebra_elgamal.Elgamal.ciphertext_to_bytes );
  ]

(* [(decoder, bytes)] for every field of the scenario's transactions that
   one of [recoders] decodes: task and reputation deployments' arguments
   and the keys and attestation inside them, and the task and reputation
   calls' payloads and the ciphertexts, attestations and proofs inside
   them. *)
let decoder_specimens () =
  let scen = Lazy.force scenario in
  let tasks =
    List.map (fun t -> t.Zebralancer.Requester.contract) [ scen.task_a; scen.task_b ]
  in
  List.concat_map
    (fun (tx : Tx.t) ->
      let payload = tx.Tx.payload in
      match tx.Tx.dst with
      | Tx.Create { behavior; args } when behavior = Task_contract.behavior_name ->
        let p = Task_contract.params_of_bytes args in
        [
          ("task params", args);
          ("snark vk", p.auth_vk);
          ("snark vk", p.reward_vk);
          ("cpla attestation", p.requester_attestation);
        ]
      | Tx.Create { behavior; args } when behavior = Reputation_contract.behavior_name ->
        [ ("snark vk", Codec.decode Codec.read_bytes args) ]
      | Tx.Call dst when List.mem dst tasks -> (
        ("task message", payload)
        ::
        (match Task_contract.message_of_bytes payload with
        | Submit { ciphertext; attestation } ->
          [ ("elgamal ciphertext", ciphertext); ("cpla attestation", attestation) ]
        | Instruct { proof; _ } -> [ ("snark proof", proof) ]
        | Submit_plain _ | Finalize -> []))
      | Tx.Call dst when dst = scen.board -> (
        ("reputation message", payload)
        ::
        (match Reputation_contract.message_of_bytes payload with
        | Claim { proof; _ } -> [ ("snark proof", proof) ]
        | Credit _ | Advance_epoch -> []))
      | _ -> [])
    (scenario_txs ())

(* Offsets in [b] that read as a u32 length prefix whose field fits. *)
let plausible_prefixes b =
  let len = Bytes.length b in
  List.filter (fun at -> at + 4 + get_u32 b at <= len) (List.init (max 0 (len - 3)) Fun.id)

let test_decoders_canonical () =
  let specimens = Array.of_list (decoder_specimens ()) in
  Alcotest.(check (list string)) "every decoder has a specimen"
    (List.sort compare (List.map fst recoders))
    (List.sort_uniq compare (Array.to_list (Array.map fst specimens)));
  let canonical what (decoder, b) =
    match (List.assoc decoder recoders) b with
    | exception Codec.Decode_error _ -> ()
    | exception e -> Alcotest.failf "%s (%s): %s" what decoder (Printexc.to_string e)
    | b' ->
      if not (Bytes.equal b' b) then
        Alcotest.failf "%s (%s): a second encoding decoded" what decoder
  in
  Array.iteri
    (fun i (decoder, b) ->
      canonical (Printf.sprintf "specimen %d" i) (decoder, b);
      (* a zero byte at either end of each field, its prefix counting it *)
      List.iter
        (fun at ->
          let v = get_u32 b at in
          List.iter
            (fun j ->
              let padded =
                Bytes.concat Bytes.empty
                  [ Bytes.sub b 0 j; Bytes.make 1 '\000'; Bytes.sub b j (Bytes.length b - j) ]
              in
              canonical (Printf.sprintf "zero byte at %d of specimen %d" j i)
                (decoder, with_prefix padded at (v + 1) Bytes.empty))
            [ at + 4; at + 4 + v ])
        (plausible_prefixes b))
    specimens;
  let int = chacha_int "test_codec/canonical-decoders" in
  for k = 1 to 3_000 do
    let i = int (Array.length specimens) in
    let decoder, b = specimens.(i) in
    let others =
      Array.of_list
        (List.filter_map
           (fun (d, o) -> if d = decoder then Some o else None)
           (Array.to_list specimens))
    in
    let prefixes = Array.of_list (plausible_prefixes b) in
    let what, b = mutate int ~prefixes ~others b in
    canonical (Printf.sprintf "iteration %d (%s of specimen %d)" k what i) (decoder, b)
  done

let () =
  Alcotest.run "codec"
    [
      ( "units",
        [
          Alcotest.test_case "scalar roundtrips" `Quick test_scalar_roundtrips;
          Alcotest.test_case "trailing bytes" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "truncated" `Quick test_truncated_rejected;
          Alcotest.test_case "range checks" `Quick test_range_checks;
          Alcotest.test_case "count prefix bounded" `Quick test_count_prefix_bounded;
        ] );
      ( "fuzz",
        [
          fuzz "policy" Zebralancer.Policy.of_bytes;
          fuzz "task params" Zebralancer.Task_contract.params_of_bytes;
          fuzz "task storage" Zebralancer.Task_contract.storage_of_bytes;
          fuzz "elgamal ciphertext" Zebra_elgamal.Elgamal.ciphertext_of_bytes;
          fuzz "snark proof" Zebra_snark.Snark.proof_of_bytes;
          fuzz "snark vk" Zebra_snark.Snark.vk_of_bytes;
          fuzz "cpla attestation" Zebra_anonauth.Cpla.attestation_of_bytes;
          fuzz "plain attestation" Zebralancer.Plain_auth.attestation_of_bytes;
          fuzz "rsa pubkey" Zebra_rsa.Rsa.public_key_of_bytes;
          fuzz "transaction" Zebra_chain.Tx.of_bytes;
          fuzz_mutated "policy" specimen_policy Zebralancer.Policy.of_bytes;
          fuzz_mutated "task params" specimen_params Zebralancer.Task_contract.params_of_bytes;
          fuzz_mutated "ciphertext" specimen_ct Zebra_elgamal.Elgamal.ciphertext_of_bytes;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "mutated scenario txs decode canonically" `Quick
            test_tx_canonical_decoding;
          Alcotest.test_case "mutated contract fields decode canonically" `Quick
            test_decoders_canonical;
        ] );
    ]
