(* MiMC and gadget tests: every gadget is checked against its native
   counterpart and for constraint satisfaction, plus negative cases where a
   corrupted witness must violate the constraints. *)

open Zebra_field
open Zebra_r1cs
module Mimc = Zebra_mimc.Mimc

let rng = Zebra_rng.Chacha20.create ~seed:"test_r1cs"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let fresh_fp () = Fp.random random_bytes

let fp = Alcotest.testable Fp.pp Fp.equal

let qtest name ?(count = 50) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let arb_fp =
  QCheck2.Gen.map
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "r1cs-%d" seed) in
      Fp.random (Zebra_rng.Chacha20.bytes r))
    QCheck2.Gen.(int_bound 1_000_000)

(* --- MiMC native --- *)

let test_mimc_permutation () =
  let key = fresh_fp () and x = fresh_fp () in
  Alcotest.check fp "decrypt . encrypt = id" x (Mimc.decrypt ~key (Mimc.encrypt ~key x))

let test_mimc_exponent_coprime () =
  (* x -> x^7 is a permutation iff gcd(7, r-1) = 1 *)
  let open Zebra_numeric in
  let g = Nat.gcd (Nat.of_int 7) (Nat.sub Fp.modulus Nat.one) in
  Alcotest.(check string) "gcd(7, r-1)" "1" (Nat.to_decimal_string g)

let test_mimc_deterministic () =
  let a = fresh_fp () and b = fresh_fp () in
  Alcotest.check fp "hash2 deterministic" (Mimc.hash2 a b) (Mimc.hash2 a b);
  Alcotest.(check bool) "order matters" false (Fp.equal (Mimc.hash2 a b) (Mimc.hash2 b a))

let test_mimc_length_separation () =
  (* hash_list [x] <> hash_list [x; 0] thanks to length absorption *)
  let x = fresh_fp () in
  Alcotest.(check bool) "length absorbed" false
    (Fp.equal (Mimc.hash_list [ x ]) (Mimc.hash_list [ x; Fp.zero ]))

let test_mimc_key_sensitivity () =
  let x = fresh_fp () in
  let k1 = fresh_fp () and k2 = fresh_fp () in
  Alcotest.(check bool) "different keys differ" false
    (Fp.equal (Mimc.encrypt ~key:k1 x) (Mimc.encrypt ~key:k2 x))

(* --- Gadgets --- *)

let test_mul_gadget () =
  let cs = Cs.create () in
  let a = fresh_fp () and b = fresh_fp () in
  let va = Cs.alloc cs a and vb = Cs.alloc cs b in
  let out = Gadgets.mul cs (Gadgets.v va) (Gadgets.v vb) in
  Alcotest.check fp "product value" (Fp.mul a b) (Cs.value cs out);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs);
  Cs.set_value cs out (Fp.add (Fp.mul a b) Fp.one);
  Alcotest.(check bool) "corrupt product detected" false (Cs.is_satisfied cs)

let test_inverse_gadget () =
  let cs = Cs.create () in
  let a = fresh_fp () in
  let va = Cs.alloc cs a in
  let inv = Gadgets.inverse cs (Gadgets.v va) in
  Alcotest.check fp "inverse" (Fp.inv a) (Cs.value cs inv);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_inverse_zero_unsatisfiable () =
  let cs = Cs.create () in
  let va = Cs.alloc cs Fp.zero in
  let _ = Gadgets.inverse cs (Gadgets.v va) in
  Alcotest.(check bool) "zero has no inverse" false (Cs.is_satisfied cs)

let test_is_zero_gadget () =
  List.iter
    (fun x ->
      let cs = Cs.create () in
      let vx = Cs.alloc cs x in
      let out = Gadgets.is_zero cs (Gadgets.v vx) in
      let expected = if Fp.is_zero x then Fp.one else Fp.zero in
      Alcotest.check fp "indicator" expected (Cs.value cs out);
      Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs))
    [ Fp.zero; Fp.one; fresh_fp () ]

let test_is_zero_no_cheat () =
  (* Claiming 'zero' for a nonzero input must be caught. *)
  let cs = Cs.create () in
  let vx = Cs.alloc cs (fresh_fp ()) in
  let out = Gadgets.is_zero cs (Gadgets.v vx) in
  Cs.set_value cs out Fp.one;
  Alcotest.(check bool) "lying is_zero detected" false (Cs.is_satisfied cs)

let test_select_gadget () =
  let a = fresh_fp () and b = fresh_fp () in
  List.iter
    (fun cond ->
      let cs = Cs.create () in
      let vc = Gadgets.alloc_bit cs cond in
      let va = Cs.alloc cs a and vb = Cs.alloc cs b in
      let out = Gadgets.select cs ~cond:(Gadgets.v vc) (Gadgets.v va) (Gadgets.v vb) in
      Alcotest.check fp "selected" (if cond then a else b) (Cs.value cs out);
      Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs))
    [ true; false ]

let test_bits_roundtrip () =
  let cs = Cs.create () in
  let x = Fp.of_int 0b1011010111 in
  let vx = Cs.alloc cs x in
  let bits = Gadgets.bits_of_expr cs (Gadgets.v vx) 16 in
  Alcotest.(check int) "nbits" 16 (Array.length bits);
  Alcotest.check fp "bit0" Fp.one (Cs.value cs bits.(0));
  Alcotest.check fp "bit1" Fp.one (Cs.value cs bits.(1));
  Alcotest.check fp "bit2" Fp.one (Cs.value cs bits.(2));
  Alcotest.check fp "bit3" Fp.zero (Cs.value cs bits.(3));
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_bits_overflow_unsatisfiable () =
  (* Value does not fit in the requested width -> recomposition fails. *)
  let cs = Cs.create () in
  let vx = Cs.alloc cs (Fp.of_int 300) in
  let _ = Gadgets.bits_of_expr cs (Gadgets.v vx) 8 in
  Alcotest.(check bool) "overflow detected" false (Cs.is_satisfied cs)

let test_less_than () =
  let cases = [ (3, 5, true); (5, 3, false); (7, 7, false); (0, 1, true); (255, 255, false) ] in
  List.iter
    (fun (a, b, expected) ->
      let cs = Cs.create () in
      let va = Cs.alloc cs (Fp.of_int a) and vb = Cs.alloc cs (Fp.of_int b) in
      let out = Gadgets.less_than cs (Gadgets.v va) (Gadgets.v vb) ~bits:8 in
      Alcotest.check fp
        (Printf.sprintf "%d < %d" a b)
        (if expected then Fp.one else Fp.zero)
        (Gadgets.eval cs out);
      Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs))
    cases

let test_exp_gadget () =
  let cs = Cs.create () in
  let base = fresh_fp () in
  let e = 0b110101 in
  let vbase = Cs.alloc cs base in
  let bits = Array.init 6 (fun i -> Gadgets.alloc_bit cs ((e lsr i) land 1 = 1)) in
  let out = Gadgets.exp cs ~base:(Gadgets.v vbase) ~bits in
  Alcotest.check fp "base^e" (Fp.pow_int base e) (Cs.value cs out);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_mimc_gadget_matches_native () =
  let cs = Cs.create () in
  let key = fresh_fp () and x = fresh_fp () in
  let vk = Cs.alloc cs key and vx = Cs.alloc cs x in
  let out = Gadgets.mimc_encrypt cs ~key:(Gadgets.v vk) (Gadgets.v vx) in
  Alcotest.check fp "gadget = native" (Mimc.encrypt ~key x) (Gadgets.eval cs out);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_mimc_hash_gadget_matches_native () =
  let cs = Cs.create () in
  let xs = List.init 3 (fun _ -> fresh_fp ()) in
  let vars = List.map (fun x -> Gadgets.v (Cs.alloc cs x)) xs in
  let out = Gadgets.mimc_hash cs vars in
  Alcotest.check fp "hash gadget = native" (Mimc.hash_list xs) (Gadgets.eval cs out);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_merkle_gadget () =
  (* Build a depth-3 tree natively and verify the gadget recomputes the root
     for each of the 8 leaves. *)
  let depth = 3 in
  let leaves = Array.init 8 (fun _ -> fresh_fp ()) in
  let level0 = leaves in
  let next level =
    Array.init (Array.length level / 2) (fun i -> Mimc.hash2 level.(2 * i) level.((2 * i) + 1))
  in
  let level1 = next level0 in
  let level2 = next level1 in
  let root = Mimc.hash2 level2.(0) level2.(1) in
  for idx = 0 to 7 do
    let cs = Cs.create () in
    let leaf = Cs.alloc cs leaves.(idx) in
    let sibling_values =
      [|
        (if idx land 1 = 0 then leaves.(idx + 1) else leaves.(idx - 1));
        (let i1 = idx / 2 in
         if i1 land 1 = 0 then level1.(i1 + 1) else level1.(i1 - 1));
        (let i2 = idx / 4 in
         if i2 land 1 = 0 then level2.(i2 + 1) else level2.(i2 - 1));
      |]
    in
    let path_bits = Array.init depth (fun l -> Gadgets.alloc_bit cs ((idx lsr l) land 1 = 1)) in
    let siblings = Array.map (Cs.alloc cs) sibling_values in
    let compress board l r = Gadgets.mimc_hash board [ l; r ] in
    let out = Gadgets.merkle_root ~compress cs ~leaf:(Gadgets.v leaf) ~path_bits ~siblings in
    Alcotest.check fp (Printf.sprintf "leaf %d root" idx) root (Gadgets.eval cs out);
    Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)
  done

let test_find_unsatisfied_label () =
  let cs = Cs.create () in
  let va = Cs.alloc cs Fp.one in
  Cs.enforce cs ~label:"must-be-two" (Gadgets.v va) (Gadgets.c Fp.one) (Gadgets.ci 2);
  Alcotest.(check (option string)) "label reported" (Some "must-be-two") (Cs.find_unsatisfied cs)

let test_alloc_input_ordering () =
  let cs = Cs.create () in
  let _ = Cs.alloc cs Fp.one in
  Alcotest.check_raises "inputs before aux"
    (Invalid_argument "Cs.alloc_input: auxiliary wires already allocated") (fun () ->
      ignore (Cs.alloc_input cs Fp.one))

let prop_eq_gadget =
  qtest "eq gadget" (QCheck2.Gen.pair arb_fp arb_fp) (fun (a, b) ->
      let cs = Cs.create () in
      let va = Cs.alloc cs a and vb = Cs.alloc cs b in
      let out = Gadgets.eq cs (Gadgets.v va) (Gadgets.v vb) in
      Cs.is_satisfied cs
      && Fp.equal (Cs.value cs out) (if Fp.equal a b then Fp.one else Fp.zero))

let prop_less_than_random =
  qtest "less_than random" QCheck2.Gen.(pair (int_bound 65535) (int_bound 65535))
    (fun (a, b) ->
      let cs = Cs.create () in
      let va = Cs.alloc cs (Fp.of_int a) and vb = Cs.alloc cs (Fp.of_int b) in
      let out = Gadgets.less_than cs (Gadgets.v va) (Gadgets.v vb) ~bits:16 in
      Cs.is_satisfied cs && Fp.equal (Gadgets.eval cs out) (if a < b then Fp.one else Fp.zero))

let () =
  Alcotest.run "r1cs"
    [
      ( "mimc",
        [
          Alcotest.test_case "permutation" `Quick test_mimc_permutation;
          Alcotest.test_case "exponent coprime" `Quick test_mimc_exponent_coprime;
          Alcotest.test_case "deterministic" `Quick test_mimc_deterministic;
          Alcotest.test_case "length separation" `Quick test_mimc_length_separation;
          Alcotest.test_case "key sensitivity" `Quick test_mimc_key_sensitivity;
        ] );
      ( "gadgets",
        [
          Alcotest.test_case "mul" `Quick test_mul_gadget;
          Alcotest.test_case "inverse" `Quick test_inverse_gadget;
          Alcotest.test_case "inverse of zero" `Quick test_inverse_zero_unsatisfiable;
          Alcotest.test_case "is_zero" `Quick test_is_zero_gadget;
          Alcotest.test_case "is_zero no cheat" `Quick test_is_zero_no_cheat;
          Alcotest.test_case "select" `Quick test_select_gadget;
          Alcotest.test_case "bit decomposition" `Quick test_bits_roundtrip;
          Alcotest.test_case "bit overflow" `Quick test_bits_overflow_unsatisfiable;
          Alcotest.test_case "less_than" `Quick test_less_than;
          Alcotest.test_case "exp" `Quick test_exp_gadget;
          Alcotest.test_case "mimc encrypt gadget" `Quick test_mimc_gadget_matches_native;
          Alcotest.test_case "mimc hash gadget" `Quick test_mimc_hash_gadget_matches_native;
          Alcotest.test_case "merkle root gadget" `Quick test_merkle_gadget;
          Alcotest.test_case "unsatisfied label" `Quick test_find_unsatisfied_label;
          Alcotest.test_case "input ordering" `Quick test_alloc_input_ordering;
          prop_eq_gadget; prop_less_than_random;
        ] );
    ]
