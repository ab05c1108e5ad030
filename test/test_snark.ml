(* End-to-end SNARK tests: completeness, rejection of bad witnesses and
   tampered proofs, zero-knowledge simulation, serialisation. *)

open Zebra_field
open Zebra_r1cs
module Snark = Zebra_snark.Snark
module Obs = Zebra_obs.Obs

let rng = Zebra_rng.Chacha20.create ~seed:"test_snark"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let src = Zebra_rng.Source.of_chacha rng
let fresh_fp () = Fp.random random_bytes

(* Demo circuit: prove knowledge of x with  x^3 + x + 5 = y  (public y). *)
let cubic_synth x cs =
  let y_val =
    Fp.add (Fp.add (Fp.mul x (Fp.mul x x)) x) (Fp.of_int 5)
  in
  let y = Cs.alloc_input cs y_val in
  let vx = Cs.alloc cs x in
  let open Gadgets in
  let x2 = square cs (v vx) in
  let x3 = mul cs (v x2) (v vx) in
  enforce_eq cs ~label:"cubic" (v x3 +: v vx +: ci 5) (v y)

let cubic_circuit x =
  let cs = Cs.create () in
  cubic_synth x cs;
  cs

(* A wider circuit exercising several gadget types at once. *)
let mixed_circuit secret =
  let cs = Cs.create () in
  let digest = Zebra_mimc.Mimc.hash_list [ secret; secret ] in
  let pub = Cs.alloc_input cs digest in
  let s = Cs.alloc cs secret in
  let open Gadgets in
  let h = mimc_hash cs [ v s; v s ] in
  enforce_eq cs ~label:"digest match" h (v pub);
  let bits = bits_of_expr cs (v s -: v s +: ci 9) 4 in
  enforce_eq cs ~label:"const bits" (pack_bits bits) (ci 9);
  cs

let keys_of circuit = Snark.setup_rng ~rng:src circuit

let test_completeness () =
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  Alcotest.(check bool) "witness satisfies" true (Cs.is_satisfied cs);
  let { Snark.pk; vk; _ } = keys_of cs in
  let proof = Snark.prove_rng ~rng:src pk cs in
  Alcotest.(check bool) "verifies" true
    (Snark.verify vk ~public_inputs:(Cs.public_inputs cs) proof)

let test_proof_reusable_across_witnesses () =
  (* One setup serves any instance of the same circuit structure. *)
  let x0 = fresh_fp () in
  let { Snark.pk; vk; _ } = keys_of (cubic_circuit x0) in
  List.iter
    (fun _ ->
      let x = fresh_fp () in
      let cs = cubic_circuit x in
      let proof = Snark.prove_rng ~rng:src pk cs in
      Alcotest.(check bool) "verifies" true
        (Snark.verify vk ~public_inputs:(Cs.public_inputs cs) proof))
    [ (); (); () ]

let test_wrong_public_input_rejected () =
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  let { Snark.pk; vk; _ } = keys_of cs in
  let proof = Snark.prove_rng ~rng:src pk cs in
  let wrong = [| Fp.add (Cs.public_inputs cs).(0) Fp.one |] in
  Alcotest.(check bool) "rejected" false (Snark.verify vk ~public_inputs:wrong proof)

let test_bad_witness_rejected () =
  (* Corrupt the witness after synthesis: the prover output must not verify. *)
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  let { Snark.pk; vk; _ } = keys_of cs in
  (* Claim a different public output than the real one. *)
  let claimed = Fp.add (Cs.public_inputs cs).(0) Fp.one in
  Cs.set_value cs (Cs.var_of_int 1) claimed;
  Alcotest.(check bool) "board unsatisfied" false (Cs.is_satisfied cs);
  let proof = Snark.prove_rng ~rng:src pk cs in
  Alcotest.(check bool) "rejected" false (Snark.verify vk ~public_inputs:[| claimed |] proof)

let test_tampered_proof_rejected () =
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  let { Snark.pk; vk; _ } = keys_of cs in
  let proof = Snark.prove_rng ~rng:src pk cs in
  let b = Snark.proof_to_bytes proof in
  (* Flip one byte inside the first field element. *)
  Bytes.set b 10 (Char.chr (Char.code (Bytes.get b 10) lxor 1));
  let tampered = Snark.proof_of_bytes b in
  Alcotest.(check bool) "rejected" false
    (Snark.verify vk ~public_inputs:(Cs.public_inputs cs) tampered)

let test_proof_constant_size () =
  let sizes =
    List.map
      (fun x ->
        let cs = mixed_circuit x in
        let { Snark.pk; _ } = keys_of cs in
        let proof = Snark.prove_rng ~rng:src pk cs in
        Snark.proof_size_bytes proof)
      [ fresh_fp (); fresh_fp () ]
  in
  let cubic =
    let x = fresh_fp () in
    let cs = cubic_circuit x in
    let { Snark.pk; _ } = keys_of cs in
    Snark.proof_size_bytes (Snark.prove_rng ~rng:src pk cs)
  in
  List.iter (fun s -> Alcotest.(check int) "constant size" cubic s) sizes

let test_zk_blinding () =
  (* Two proofs of the same statement with fresh randomness must differ. *)
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  let { Snark.pk; vk; _ } = keys_of cs in
  let p1 = Snark.prove_rng ~rng:src pk cs in
  let p2 = Snark.prove_rng ~rng:src pk cs in
  Alcotest.(check bool) "distinct proofs" false (Snark.equal_proof p1 p2);
  Alcotest.(check bool) "both verify" true
    (Snark.verify vk ~public_inputs:(Cs.public_inputs cs) p1
    && Snark.verify vk ~public_inputs:(Cs.public_inputs cs) p2)

let test_simulator () =
  (* The trapdoor simulator forges verifying proofs with no witness: the
     zero-knowledge property of the construction. *)
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  let { Snark.vk; trapdoor; _ } = keys_of cs in
  let inputs = Cs.public_inputs cs in
  let forged = Snark.simulate_rng ~rng:src trapdoor ~public_inputs:inputs in
  Alcotest.(check bool) "simulated proof verifies" true
    (Snark.verify vk ~public_inputs:inputs forged);
  (* Even for a *false* statement: simulation is statement-independent. *)
  let bogus = [| fresh_fp () |] in
  let forged2 = Snark.simulate_rng ~rng:src trapdoor ~public_inputs:bogus in
  Alcotest.(check bool) "simulates any statement" true
    (Snark.verify vk ~public_inputs:bogus forged2)

let test_serialization_roundtrip () =
  let x = fresh_fp () in
  let cs = cubic_circuit x in
  let { Snark.pk; vk; _ } = keys_of cs in
  let proof = Snark.prove_rng ~rng:src pk cs in
  let proof' = Snark.proof_of_bytes (Snark.proof_to_bytes proof) in
  Alcotest.(check bool) "proof roundtrip" true (Snark.equal_proof proof proof');
  let vk' = Snark.vk_of_bytes (Snark.vk_to_bytes vk) in
  Alcotest.(check bool) "vk roundtrip verifies" true
    (Snark.verify vk' ~public_inputs:(Cs.public_inputs cs) proof)

let test_shape_mismatch () =
  let { Snark.pk; _ } = keys_of (cubic_circuit (fresh_fp ())) in
  let other = mixed_circuit (fresh_fp ()) in
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Snark.prove_rng: circuit shape mismatch with proving key") (fun () ->
      ignore (Snark.prove_rng ~rng:src pk other))

let test_mixed_circuit_end_to_end () =
  let secret = fresh_fp () in
  let cs = mixed_circuit secret in
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs);
  let { Snark.pk; vk; _ } = keys_of cs in
  let proof = Snark.prove_rng ~rng:src pk cs in
  Alcotest.(check bool) "verifies" true
    (Snark.verify vk ~public_inputs:(Cs.public_inputs cs) proof)

let test_wrong_input_count () =
  let cs = cubic_circuit (fresh_fp ()) in
  let { Snark.pk; vk; _ } = keys_of cs in
  let proof = Snark.prove_rng ~rng:src pk cs in
  Alcotest.(check bool) "too many inputs rejected" false
    (Snark.verify vk ~public_inputs:[| Fp.one; Fp.one |] proof)

(* --- decoded-VK cache --- *)

(* Read through the obs counters, as deltas: fresh circuits give vk bytes
   no earlier test has cached. *)
let test_vk_decode_cache () =
  let hits = Obs.Counter.make "snark.cache.vk.hits" in
  let decodes = Obs.Counter.make "snark.cache.vk.decodes" in
  let { Snark.vk; _ } = keys_of (cubic_circuit (fresh_fp ())) in
  let vk_bytes = Snark.vk_to_bytes vk in
  let { Snark.vk = vk2; _ } = keys_of (mixed_circuit (fresh_fp ())) in
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was_enabled)
    (fun () ->
      let h0 = Obs.Counter.value hits and d0 = Obs.Counter.value decodes in
      let original = Bytes.copy vk_bytes in
      let first = Snark.vk_of_bytes_cached vk_bytes in
      (* the memo keys a miss on its own copy: flipping a byte of the
         caller's buffer afterwards leaves the original bytes cached *)
      Bytes.set vk_bytes 0 (Char.chr (Char.code (Bytes.get vk_bytes 0) lxor 1));
      Alcotest.(check bool) "a fresh copy of the original bytes hits the same key" true
        (Snark.vk_of_bytes_cached (Bytes.copy original) == first);
      Alcotest.(check (pair int int)) "one decode per distinct bytes" (1, 1)
        (Obs.Counter.value hits - h0, Obs.Counter.value decodes - d0);
      ignore (Snark.vk_of_bytes_cached (Snark.vk_to_bytes vk2));
      Alcotest.(check int) "distinct bytes decode separately" 2
        (Obs.Counter.value decodes - d0))

(* A vk whose io_a count claims 2^24 elements must fail as a typed decode
   error, before allocating for the claimed elements: peers supply vk
   bytes in task, RA and reputation contract payloads. *)
let test_forged_vk_count () =
  let { Snark.vk; _ } = keys_of (cubic_circuit (fresh_fp ())) in
  let b = Snark.vk_to_bytes vk in
  (* u32 input count, then five length-prefixed field elements *)
  let off = 4 + (5 * (4 + Bytes.length (Fp.to_bytes_be Fp.one))) in
  Alcotest.(check int) "io_a count located" (Snark.num_public_inputs vk + 1)
    (Int32.to_int (Bytes.get_int32_be b off));
  Bytes.set_int32_be b off (Int32.shift_left 1l 24);
  let raised = ref false in
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  (match Snark.vk_of_bytes b with
  | _ -> ()
  | exception Zebra_codec.Codec.Decode_error _ -> raised := true);
  Gc.minor ();
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "Decode_error" true !raised;
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f B, under 1 MiB" allocated)
    true (allocated < 1048576.)

(* --- named keypair memo --- *)

let prove_bytes pk cs =
  Snark.proof_to_bytes
    (Snark.prove_rng ~rng:(Zebra_rng.Source.of_seed "kc-prove") pk cs)

let test_keycache_named_path () =
  let cache = Snark.Keycache.create () in
  let synth_calls = ref 0 in
  let x = fresh_fp () in
  let synth cs =
    incr synth_calls;
    cubic_synth x cs
  in
  let cs0 = cubic_circuit x in
  let kp1 = Snark.Keycache.setup_named cache ~circuit_id:"test/cubic" ~seed:"s" synth in
  let kp2 = Snark.Keycache.setup_named cache ~circuit_id:"test/cubic" ~seed:"s" synth in
  Alcotest.(check int) "synthesis only on miss" 1 !synth_calls;
  Alcotest.(check int) "keys report the board's constraints" (Cs.num_constraints cs0)
    (Snark.num_constraints kp1.Snark.pk);
  Alcotest.(check bool) "hit returns the memoised keypair" true (kp1 == kp2);
  (* The memoised keypair is the one a fresh seeded setup produces, and
     so are the proofs it makes. *)
  let fresh = Snark.setup_rng ~rng:(Zebra_rng.Source.of_seed "s") cs0 in
  Alcotest.(check bool) "vk equals fresh setup" true
    (Snark.vk_to_bytes kp1.Snark.vk = Snark.vk_to_bytes fresh.Snark.vk);
  Alcotest.(check bool) "proofs byte-identical" true
    (prove_bytes kp1.Snark.pk cs0 = prove_bytes fresh.Snark.pk cs0);
  (* The seed is part of the key. *)
  let kp3 = Snark.Keycache.setup_named cache ~circuit_id:"test/cubic" ~seed:"t" synth in
  Alcotest.(check int) "new seed misses" 2 !synth_calls;
  Alcotest.(check bool) "new seed, new keys" false
    (Snark.vk_to_bytes kp1.Snark.vk = Snark.vk_to_bytes kp3.Snark.vk)

(* The three protocol circuits, each set up once through a fresh memo on
   one seed, with the bare seeded setup of its [synthesize_dummy] board
   beside it.  CPLA runs at depth 6, the witness-board tests' depth. *)
let setup_seed = "test-snark-witness-setup"
let cpla_depth = 6
let reward_policy = Zebralancer.Policy.Majority { choices = 4 }

let bare_setup synth =
  let cs = Cs.create () in
  synth cs;
  (cs, Snark.setup_rng ~rng:(Zebra_rng.Source.of_seed setup_seed) cs)

let cpla_fixture =
  lazy
    (let module Cpla = Zebra_anonauth.Cpla in
     ( Cpla.setup_cached (Snark.Keycache.create ()) ~seed:setup_seed ~depth:cpla_depth,
       bare_setup (Cpla.synthesize_dummy ~depth:cpla_depth) ))

let reward_fixture =
  lazy
    (let module Rc = Zebralancer.Reward_circuit in
     ( Rc.setup_cached (Snark.Keycache.create ()) ~seed:setup_seed ~policy:reward_policy ~n:2,
       bare_setup (Rc.synthesize_dummy ~policy:reward_policy ~n:2) ))

let reputation_fixture =
  lazy
    (let module Rep = Zebralancer.Reputation in
     ( Rep.setup_cached (Snark.Keycache.create ()) ~seed:setup_seed,
       bare_setup Rep.synthesize_dummy ))

(* [setup_cached] serves each circuit the keypair of the bare setup, and
   the size the circuit reports is its board's. *)
let test_circuits_set_up_through_memo () =
  let module Cpla = Zebra_anonauth.Cpla in
  let module Rc = Zebralancer.Reward_circuit in
  let module Rep = Zebralancer.Reputation in
  let check name ~vk ~size (cs, kp) =
    Alcotest.(check bool) (name ^ ": vk equals bare setup") true
      (Bytes.equal vk (Snark.vk_to_bytes kp.Snark.vk));
    Alcotest.(check int) (name ^ ": size is the board's") (Cs.num_constraints cs) size
  in
  let params, bare = Lazy.force cpla_fixture in
  check "cpla" ~vk:(Cpla.vk_to_bytes params) ~size:(Cpla.circuit_size params) bare;
  let rc, bare = Lazy.force reward_fixture in
  check "reward" ~vk:(Rc.vk_bytes rc) ~size:(Rc.num_constraints rc) bare;
  let rep, bare = Lazy.force reputation_fixture in
  check "reputation" ~vk:(Rep.vk_bytes rep) ~size:(Rep.circuit_size rep) bare

(* A key whose input tables are not all one entry per public input plus
   the constant wire does not decode, so each key-bytes verifier rejects
   the proof that verifies under the honest key, where indexing the short
   table would raise. *)
let test_short_io_table () =
  let module Cpla = Zebra_anonauth.Cpla in
  let module Ra = Zebra_anonauth.Ra in
  let module Rc = Zebralancer.Reward_circuit in
  let module Rep = Zebralancer.Reputation in
  let module Elgamal = Zebra_elgamal.Elgamal in
  let key = Cpla.keygen_rng ~rng:src () in
  let cpla_verify =
    let params, _ = Lazy.force cpla_fixture in
    let ra = Ra.create ~depth:cpla_depth () in
    let index = Ra.register ra key.Cpla.pk in
    let prefix = fresh_fp () and message = fresh_fp () and root = Ra.root ra in
    let att =
      Cpla.auth_rng ~rng:src params ~prefix ~message ~key ~index ~path:(Ra.path ra index) ~root
    in
    ( Cpla.vk_to_bytes params,
      fun vk_bytes -> Cpla.verify_with_vk ~vk_bytes ~prefix ~message ~root att )
  in
  let reward_verify =
    let rc, _ = Lazy.force reward_fixture in
    let esk, epk = Elgamal.generate ~random_bytes in
    let answers = [| Some 1; Some 1 |] in
    let cts =
      Array.map
        (fun a -> Elgamal.encrypt ~random_bytes epk (Elgamal.encode_answer (Option.get a)))
        answers
    in
    let rewards = Zebralancer.Policy.rewards reward_policy ~budget:20 ~n:2 answers in
    let rho = Rc.rho_of ~policy:reward_policy ~budget:20 ~n:2 in
    let proof = Rc.prove ~random_bytes rc ~esk ~rho ~cts ~rewards in
    (Rc.vk_bytes rc, fun vk_bytes -> Rc.verify ~vk_bytes ~epk ~rho ~cts ~rewards proof)
  in
  let link_verify =
    let rep, _ = Lazy.force reputation_fixture in
    let task_prefix = fresh_fp () in
    let proof = Rep.prove_link ~random_bytes rep ~key ~task_prefix ~epoch:0 in
    ( Rep.vk_bytes rep,
      fun vk_bytes ->
        Rep.verify_link ~vk_bytes ~task_tag:(Rep.task_tag key ~task_prefix)
          ~pseudonym:(Rep.epoch_pseudonym key ~epoch:0) ~task_prefix ~epoch:0 proof )
  in
  List.iter
    (fun (name, (vk_bytes, verify)) ->
      Alcotest.(check bool) (name ^ ": honest key verifies") true (verify vk_bytes);
      List.iter
        (fun (what, bad) ->
          (match Snark.vk_of_bytes bad with
          | _ -> Alcotest.failf "%s, %s: decoded" name what
          | exception Zebra_codec.Codec.Decode_error _ -> ());
          Alcotest.(check bool) (Printf.sprintf "%s, %s: rejected" name what) false (verify bad))
        (Vk_tables.malformed vk_bytes))
    [
      ("Cpla.verify_with_vk", cpla_verify);
      ("Reward_circuit.verify", reward_verify);
      ("Reputation.verify_link", link_verify);
    ]

(* --- witness board --- *)

let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: no Invalid_argument on a witness board" what
  | exception Invalid_argument _ -> ()

let same_assignment a b =
  Array.length a = Array.length b && Array.for_all2 Fp.equal a b

(* Every deployed circuit synthesises to the same assignment and counts on
   both boards: a gadget that takes another path on a witness board (the
   Poseidon permutation skips building its term lists there) must still
   allocate the same wires with the same values. *)
let test_boards_agree () =
  List.iter
    (fun (name, synth) ->
      let cs = Cs.create () and w = Cs.create_witness () in
      synth cs;
      synth w;
      Alcotest.(check int) (name ^ ": vars") (Cs.num_vars cs) (Cs.num_vars w);
      Alcotest.(check int) (name ^ ": inputs") (Cs.num_inputs cs) (Cs.num_inputs w);
      Alcotest.(check int) (name ^ ": constraints") (Cs.num_constraints cs)
        (Cs.num_constraints w);
      Alcotest.(check bool) (name ^ ": assignment") true
        (same_assignment (Cs.assignment cs) (Cs.assignment w)))
    (Zebralancer.Deployed.circuits ())

let test_witness_readers_raise () =
  let w = Cs.create_witness () in
  let y = Cs.alloc_input w ~label:"y" (Fp.of_int 6) in
  let x = Cs.alloc w ~label:"x" (Fp.of_int 2) in
  Gadgets.enforce_eq w ~label:"wrong" (Gadgets.v x) (Gadgets.v y);
  Alcotest.(check int) "enforce counts" 1 (Cs.num_constraints w);
  raises_invalid "wire_label" (fun () -> Cs.wire_label w x);
  raises_invalid "constraints" (fun () -> Cs.constraints w);
  raises_invalid "iter_constraints" (fun () ->
      Cs.iter_constraints w (fun ~index:_ ~label:_ _ _ _ -> ()));
  raises_invalid "is_satisfied" (fun () -> Cs.is_satisfied w);
  raises_invalid "find_unsatisfied" (fun () -> Cs.find_unsatisfied w);
  raises_invalid "Snark.setup_rng" (fun () -> Snark.setup_rng ~rng:src w)

let qtest ?(count = 30) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* Depth-6 CPLA: the witness-board proof of [Cpla.auth_rng] is the proof
   a constraint-board synthesis of the same statement gets under the same
   seed, and that board is satisfied.  The constraint-board proof uses the
   bare setup's proving key, which the cache tests show is the memo's. *)
let prop_cpla_boards_same_proof =
  qtest ~count:4 "cpla depth 6: witness-board proof = constraint-board proof"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 63))
    (fun (seed, fillers) ->
      let module Cpla = Zebra_anonauth.Cpla in
      let module Ra = Zebra_anonauth.Ra in
      let params, (_, { Snark.pk; _ }) = Lazy.force cpla_fixture in
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "witness-%d" seed) in
      let rb n = Zebra_rng.Chacha20.bytes r n in
      let key = Cpla.keygen_rng ~rng:(Zebra_rng.Source.of_chacha r) () in
      let ra = Ra.create ~depth:cpla_depth () in
      for _ = 1 to fillers do
        ignore (Ra.register ra (Fp.random rb) : int)
      done;
      let index = Ra.register ra key.Cpla.pk in
      let prefix = Fp.random rb and message = Fp.random rb in
      let path = Ra.path ra index and root = Ra.root ra in
      let prove_seed = Printf.sprintf "witness-prove-%d" seed in
      let att =
        Cpla.auth_rng ~rng:(Zebra_rng.Source.of_seed prove_seed) params ~prefix ~message ~key
          ~index ~path ~root
      in
      let cs = Cs.create () in
      Cpla.synthesize cs ~composition:(Cpla.composition params) ~depth:cpla_depth ~prefix
        ~message ~root ~t1:att.Cpla.t1 ~t2:att.Cpla.t2 ~sk:key.Cpla.sk ~index ~path;
      let proof = Snark.prove_rng ~rng:(Zebra_rng.Source.of_seed prove_seed) pk cs in
      Cs.is_satisfied cs
      && Snark.proof_to_bytes proof = Snark.proof_to_bytes att.Cpla.proof
      && Cpla.verify params ~prefix ~message ~root att)

let () =
  Alcotest.run "snark"
    [
      ( "snark",
        [
          Alcotest.test_case "completeness" `Quick test_completeness;
          Alcotest.test_case "multi-instance keys" `Quick test_proof_reusable_across_witnesses;
          Alcotest.test_case "wrong public input" `Quick test_wrong_public_input_rejected;
          Alcotest.test_case "bad witness" `Quick test_bad_witness_rejected;
          Alcotest.test_case "tampered proof" `Quick test_tampered_proof_rejected;
          Alcotest.test_case "constant proof size" `Quick test_proof_constant_size;
          Alcotest.test_case "zk blinding" `Quick test_zk_blinding;
          Alcotest.test_case "trapdoor simulator" `Quick test_simulator;
          Alcotest.test_case "serialisation" `Quick test_serialization_roundtrip;
          Alcotest.test_case "shape mismatch" `Quick test_shape_mismatch;
          Alcotest.test_case "mixed circuit" `Quick test_mixed_circuit_end_to_end;
          Alcotest.test_case "wrong input count" `Quick test_wrong_input_count;
          Alcotest.test_case "forged vk count" `Quick test_forged_vk_count;
          Alcotest.test_case "short vk io table" `Quick test_short_io_table;
        ] );
      ( "cache",
        [
          Alcotest.test_case "vk decode once" `Quick test_vk_decode_cache;
          Alcotest.test_case "named path" `Quick test_keycache_named_path;
          Alcotest.test_case "circuits set up through the memo" `Quick
            test_circuits_set_up_through_memo;
        ] );
      ( "witness board",
        [
          Alcotest.test_case "deployed circuits agree on both boards" `Quick test_boards_agree;
          Alcotest.test_case "constraint readers raise" `Quick test_witness_readers_raise;
          prop_cpla_boards_same_proof;
        ] );
    ]
