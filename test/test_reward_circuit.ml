(* Reward-circuit tests: the SNARK statement must accept exactly the reward
   vectors the policy prescribes, for honest and adversarial provers, over
   full, partial and garbage submissions. *)

open Zebra_field
module Elgamal = Zebra_elgamal.Elgamal
module Policy = Zebralancer.Policy
module Rc = Zebralancer.Reward_circuit

let rng = Zebra_rng.Chacha20.create ~seed:"test_reward_circuit"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

type fixture = {
  circuit : Rc.t;
  esk : Elgamal.secret_key;
  epk : Elgamal.public_key;
  vk : bytes;
}

let make_fixture ~policy ~n =
  let circuit =
    Rc.setup_cached (Zebra_snark.Snark.Keycache.create ()) ~seed:"test_reward_circuit" ~policy ~n
  in
  let esk, epk = Elgamal.generate ~random_bytes in
  { circuit; esk; epk; vk = Rc.vk_bytes circuit }

(* majority over 3 answers, 4 choices — shared by most tests *)
let fx = lazy (make_fixture ~policy:(Policy.Majority { choices = 4 }) ~n:3)

let encrypt_answers fx answers =
  Array.map
    (function
      | Some a -> Elgamal.encrypt ~random_bytes fx.epk (Elgamal.encode_answer a)
      | None -> Elgamal.missing)
    answers

let policy_rewards fx ~budget answers =
  Policy.rewards (Rc.policy fx.circuit) ~budget ~n:(Rc.n fx.circuit) answers

let prove_and_verify fx ~budget ~answers ~rewards =
  let cts = encrypt_answers fx answers in
  let rho = Rc.rho_of ~policy:(Rc.policy fx.circuit) ~budget ~n:(Rc.n fx.circuit) in
  let proof = Rc.prove ~random_bytes fx.circuit ~esk:fx.esk ~rho ~cts ~rewards in
  Rc.verify ~vk_bytes:fx.vk ~epk:fx.epk ~rho ~cts ~rewards proof

let some xs = Array.of_list (List.map Option.some xs)

let test_honest_instruction_accepted () =
  let fx = Lazy.force fx in
  let answers = some [ 1; 1; 2 ] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check (array int)) "policy" [| 30; 30; 0 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards)

let test_unanimous () =
  let fx = Lazy.force fx in
  let answers = some [ 3; 3; 3 ] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards)

let test_missing_slot () =
  let fx = Lazy.force fx in
  let answers = [| Some 2; None; Some 2 |] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check (array int)) "missing gets 0" [| 30; 0; 30 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards)

let test_all_missing () =
  let fx = Lazy.force fx in
  let answers = [| None; None; None |] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards)

let test_tie_break () =
  let fx = Lazy.force fx in
  (* one vote each: majority = smallest choice present... all three distinct:
     counts 1,1,1 for choices 0,1,3 -> majority 0 *)
  let answers = some [ 1; 0; 3 ] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check (array int)) "tie to smallest" [| 0; 30; 0 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards)

let test_false_reporting_rejected () =
  (* The false-reporting attack: requester claims nobody was correct. *)
  let fx = Lazy.force fx in
  let answers = some [ 1; 1; 2 ] in
  Alcotest.(check bool) "underpay rejected" false
    (prove_and_verify fx ~budget:90 ~answers ~rewards:[| 0; 0; 0 |])

let test_overpay_friend_rejected () =
  let fx = Lazy.force fx in
  let answers = some [ 1; 1; 2 ] in
  Alcotest.(check bool) "overpay rejected" false
    (prove_and_verify fx ~budget:90 ~answers ~rewards:[| 30; 30; 30 |]);
  Alcotest.(check bool) "swap rejected" false
    (prove_and_verify fx ~budget:90 ~answers ~rewards:[| 0; 30; 30 |])

let test_wrong_epk_rejected () =
  (* Proving with a different esk than the task key: pair(esk,epk) fails. *)
  let fx = Lazy.force fx in
  let other_esk, _ = Elgamal.generate ~random_bytes in
  let answers = some [ 1; 1; 2 ] in
  let cts = encrypt_answers fx answers in
  let rewards = policy_rewards fx ~budget:90 answers in
  let rho = Rc.rho_of ~policy:(Rc.policy fx.circuit) ~budget:90 ~n:3 in
  let proof = Rc.prove ~random_bytes fx.circuit ~esk:other_esk ~rho ~cts ~rewards in
  Alcotest.(check bool) "wrong key rejected" false
    (Rc.verify ~vk_bytes:fx.vk ~epk:fx.epk ~rho ~cts ~rewards proof)

let test_tampered_ciphertext_inputs_rejected () =
  (* Verifier inputs are rebuilt by the contract from its own storage; a
     requester substituting different ciphertexts fails verification. *)
  let fx = Lazy.force fx in
  let answers = some [ 1; 1; 2 ] in
  let cts = encrypt_answers fx answers in
  let rewards = policy_rewards fx ~budget:90 answers in
  let rho = 30 in
  let proof = Rc.prove ~random_bytes fx.circuit ~esk:fx.esk ~rho ~cts ~rewards in
  let cts' = Array.copy cts in
  cts'.(0) <- Elgamal.encrypt ~random_bytes fx.epk (Elgamal.encode_answer 2);
  Alcotest.(check bool) "substituted ciphertext rejected" false
    (Rc.verify ~vk_bytes:fx.vk ~epk:fx.epk ~rho ~cts:cts' ~rewards proof)

let test_wrong_rho_rejected () =
  let fx = Lazy.force fx in
  let answers = some [ 1; 1; 1 ] in
  let cts = encrypt_answers fx answers in
  let rewards = [| 40; 40; 40 |] in
  (* prove with inflated rho = 40 (real budget 90 -> rho 30) *)
  let proof = Rc.prove ~random_bytes fx.circuit ~esk:fx.esk ~rho:40 ~cts ~rewards in
  Alcotest.(check bool) "contract uses its own rho" false
    (Rc.verify ~vk_bytes:fx.vk ~epk:fx.epk ~rho:30 ~cts ~rewards proof)

let test_garbage_plaintext_handled () =
  (* A malicious worker encrypts a value outside the answer encoding; the
     requester must still be able to prove (garbage earns 0). *)
  let fx = Lazy.force fx in
  let garbage = Fp.of_int 123456 in
  let cts =
    [|
      Elgamal.encrypt ~random_bytes fx.epk garbage;
      Elgamal.encrypt ~random_bytes fx.epk (Elgamal.encode_answer 2);
      Elgamal.encrypt ~random_bytes fx.epk (Elgamal.encode_answer 2);
    |]
  in
  let rewards = [| 0; 30; 30 |] in
  let rho = 30 in
  let proof = Rc.prove ~random_bytes fx.circuit ~esk:fx.esk ~rho ~cts ~rewards in
  Alcotest.(check bool) "garbage-tolerant" true
    (Rc.verify ~vk_bytes:fx.vk ~epk:fx.epk ~rho ~cts ~rewards proof)

let test_threshold_circuit () =
  let fx = make_fixture ~policy:(Policy.Majority_threshold { choices = 3; quota = 3 }) ~n:3 in
  (* quota 3 not met (2-1 split): all zero *)
  let answers = some [ 0; 0; 1 ] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check (array int)) "gate closed" [| 0; 0; 0 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards);
  (* paying despite the gate must fail *)
  Alcotest.(check bool) "gate bypass rejected" false
    (prove_and_verify fx ~budget:90 ~answers ~rewards:[| 30; 30; 0 |]);
  (* quota met *)
  let answers = some [ 0; 0; 0 ] in
  let rewards = policy_rewards fx ~budget:90 answers in
  Alcotest.(check (array int)) "gate open" [| 30; 30; 30 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:90 ~answers ~rewards)

let test_auction_circuit () =
  let fx =
    make_fixture ~policy:(Policy.Reverse_auction { winners = 2; max_bid = 7 }) ~n:4
  in
  let answers = some [ 5; 3; 6; 1 ] in
  let rewards = policy_rewards fx ~budget:100 answers in
  Alcotest.(check (array int)) "policy" [| 0; 5; 0; 5 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:100 ~answers ~rewards);
  (* paying a loser fails *)
  Alcotest.(check bool) "loser payment rejected" false
    (prove_and_verify fx ~budget:100 ~answers ~rewards:[| 5; 5; 0; 0 |])

let test_auction_circuit_edge_cases () =
  let fx =
    make_fixture ~policy:(Policy.Reverse_auction { winners = 2; max_bid = 7 }) ~n:3
  in
  (* single valid bid: reserve price *)
  let answers = [| Some 4; None; None |] in
  let rewards = policy_rewards fx ~budget:100 answers in
  Alcotest.(check (array int)) "reserve" [| 7; 0; 0 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:100 ~answers ~rewards);
  (* budget cap binds: budget 8 -> cap 4 *)
  let answers = some [ 5; 3; 6 ] in
  let rewards = policy_rewards fx ~budget:8 answers in
  Alcotest.(check (array int)) "capped" [| 4; 4; 0 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:8 ~answers ~rewards);
  (* ties break to earlier submission *)
  let answers = some [ 3; 3; 3 ] in
  let rewards = policy_rewards fx ~budget:100 answers in
  Alcotest.(check (array int)) "ties" [| 3; 3; 0 |] rewards;
  Alcotest.(check bool) "verifies" true (prove_and_verify fx ~budget:100 ~answers ~rewards)

let test_policy_circuit_agreement () =
  (* Property: for random answer profiles (including missing slots), the
     canonical policy evaluation is exactly what the circuit accepts, and a
     perturbed vector is rejected.  Sampled rather than qcheck'd because
     each case costs a proof. *)
  let fx = Lazy.force fx in
  let rng = Random.State.make [| 20260706 |] in
  for case = 1 to 10 do
    let answers =
      Array.init 3 (fun _ ->
          if Random.State.int rng 5 = 0 then None else Some (Random.State.int rng 4))
    in
    let budget = 30 + Random.State.int rng 200 in
    let rewards = policy_rewards fx ~budget answers in
    Alcotest.(check bool) (Printf.sprintf "case %d accepts policy vector" case) true
      (prove_and_verify fx ~budget ~answers ~rewards);
    let wrong = Array.copy rewards in
    let j = Random.State.int rng 3 in
    wrong.(j) <- wrong.(j) + 1;
    Alcotest.(check bool) (Printf.sprintf "case %d rejects perturbed vector" case) false
      (prove_and_verify fx ~budget ~answers ~rewards:wrong)
  done

let test_vk_size_grows_with_n () =
  let s3 = Bytes.length (Lazy.force fx).vk in
  let fx5 = make_fixture ~policy:(Policy.Majority { choices = 4 }) ~n:5 in
  Alcotest.(check bool) "vk grows with n" true (Bytes.length fx5.vk > s3)

let () =
  Alcotest.run "reward_circuit"
    [
      ( "majority",
        [
          Alcotest.test_case "honest accepted" `Quick test_honest_instruction_accepted;
          Alcotest.test_case "unanimous" `Quick test_unanimous;
          Alcotest.test_case "missing slot" `Quick test_missing_slot;
          Alcotest.test_case "all missing" `Quick test_all_missing;
          Alcotest.test_case "tie break" `Quick test_tie_break;
          Alcotest.test_case "garbage plaintext" `Quick test_garbage_plaintext_handled;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "false reporting" `Quick test_false_reporting_rejected;
          Alcotest.test_case "overpay / swap" `Quick test_overpay_friend_rejected;
          Alcotest.test_case "wrong epk" `Quick test_wrong_epk_rejected;
          Alcotest.test_case "ciphertext substitution" `Quick test_tampered_ciphertext_inputs_rejected;
          Alcotest.test_case "wrong rho" `Quick test_wrong_rho_rejected;
        ] );
      ( "variants",
        [
          Alcotest.test_case "threshold" `Quick test_threshold_circuit;
          Alcotest.test_case "auction" `Quick test_auction_circuit;
          Alcotest.test_case "auction edges" `Quick test_auction_circuit_edge_cases;
          Alcotest.test_case "policy/circuit agreement" `Slow test_policy_circuit_agreement;
          Alcotest.test_case "vk size" `Quick test_vk_size_grows_with_n;
        ] );
    ]
