(* Poseidon hash and gadget tests. *)

open Zebra_field
open Zebra_r1cs
module Poseidon = Zebra_poseidon.Poseidon
module Mimc = Zebra_mimc.Mimc

let rng = Zebra_rng.Chacha20.create ~seed:"test_poseidon"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let fresh_fp () = Fp.random random_bytes

let fp = Alcotest.testable Fp.pp Fp.equal

let test_permutation_deterministic () =
  let s1 = [| Fp.one; Fp.two; Fp.of_int 3 |] in
  let s2 = Array.copy s1 in
  Poseidon.permute s1;
  Poseidon.permute s2;
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "lane %d" i) x s2.(i)) s1

let test_permutation_changes_state () =
  let s = [| Fp.one; Fp.two; Fp.of_int 3 |] in
  Poseidon.permute s;
  Alcotest.(check bool) "state changed" false (Fp.equal s.(0) Fp.one)

let test_bad_width () =
  Alcotest.check_raises "width" (Invalid_argument "Poseidon.permute: bad state width")
    (fun () -> Poseidon.permute [| Fp.one |])

let test_hash2_properties () =
  let a = fresh_fp () and b = fresh_fp () in
  Alcotest.check fp "deterministic" (Poseidon.hash2 a b) (Poseidon.hash2 a b);
  Alcotest.(check bool) "order matters" false
    (Fp.equal (Poseidon.hash2 a b) (Poseidon.hash2 b a));
  Alcotest.(check bool) "differs from MiMC" false
    (Fp.equal (Poseidon.hash2 a b) (Mimc.hash2 a b))

let test_hash_list_length_separation () =
  let x = fresh_fp () in
  Alcotest.(check bool) "length absorbed" false
    (Fp.equal (Poseidon.hash_list [ x ]) (Poseidon.hash_list [ x; Fp.zero ]))

let test_mds_invertible () =
  (* A Cauchy matrix is invertible; sanity-check by showing no lane mixes
     to zero on a random input (determinant check by behaviour). *)
  let s = [| fresh_fp (); fresh_fp (); fresh_fp () |] in
  let before = Array.copy s in
  Poseidon.permute s;
  Poseidon.permute s;
  Alcotest.(check bool) "still moving" false (Fp.equal s.(0) before.(0))

let test_gadget_matches_native () =
  let cs = Cs.create () in
  let a = fresh_fp () and b = fresh_fp () in
  let va = Cs.alloc cs a and vb = Cs.alloc cs b in
  let out = Poseidon.hash2_gadget cs (Gadgets.v va) (Gadgets.v vb) in
  Alcotest.check fp "gadget = native" (Poseidon.hash2 a b) (Gadgets.eval cs out);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_hash_list_gadget_matches_native () =
  (* The composition layer (Zebra_hashcomp) routes CPLA's tag hashes
     through hash_list_gadget; it must agree with the native hash_list at
     every arity the circuits use. *)
  List.iter
    (fun n ->
      let cs = Cs.create () in
      let xs = List.init n (fun _ -> fresh_fp ()) in
      let vars = List.map (fun x -> Gadgets.v (Cs.alloc cs x)) xs in
      let out = Poseidon.hash_list_gadget cs vars in
      Alcotest.check fp
        (Printf.sprintf "gadget = native at arity %d" n)
        (Poseidon.hash_list xs) (Gadgets.eval cs out);
      Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs))
    [ 1; 2; 3 ]

let test_gadget_constraint_count () =
  let count_gadget build =
    let cs = Cs.create () in
    let va = Cs.alloc cs (fresh_fp ()) and vb = Cs.alloc cs (fresh_fp ()) in
    ignore (build cs (Gadgets.v va) (Gadgets.v vb));
    Cs.num_constraints cs
  in
  let poseidon = count_gadget Poseidon.hash2_gadget in
  let mimc = count_gadget (fun cs a b -> Gadgets.mimc_hash cs [ a; b ]) in
  Alcotest.(check bool)
    (Printf.sprintf "poseidon (%d) < mimc (%d)" poseidon mimc)
    true (poseidon < mimc);
  (* Lock the exact budget the .mli documents: 81 S-boxes x 3 constraints
     (8 full rounds x 3 lanes + 57 partial).  The documented CPLA counts
     (245*depth + 6*243) stand on this number. *)
  Alcotest.(check int) "hash2_gadget is exactly 243 constraints" 243 poseidon

let test_merkle_gadget () =
  let depth = 4 in
  (* Build a native path and check the gadget recomputes the root. *)
  let leaf = fresh_fp () in
  let siblings = Array.init depth (fun _ -> fresh_fp ()) in
  let index = 0b1010 in
  let root = ref leaf in
  Array.iteri
    (fun l sib ->
      let bit = (index lsr l) land 1 in
      root := if bit = 1 then Poseidon.hash2 sib !root else Poseidon.hash2 !root sib)
    siblings;
  let cs = Cs.create () in
  let vleaf = Cs.alloc cs leaf in
  let bits = Array.init depth (fun l -> Gadgets.alloc_bit cs ((index lsr l) land 1 = 1)) in
  let vsibs = Array.map (Cs.alloc cs) siblings in
  let out =
    Gadgets.merkle_root ~compress:Poseidon.hash2_gadget cs ~leaf:(Gadgets.v vleaf) ~path_bits:bits
      ~siblings:vsibs
  in
  Alcotest.check fp "root" !root (Gadgets.eval cs out);
  Alcotest.(check bool) "satisfied" true (Cs.is_satisfied cs)

let test_gadget_detects_cheating () =
  (* Corrupting an intermediate wire must break satisfaction. *)
  let cs = Cs.create () in
  let va = Cs.alloc cs (fresh_fp ()) and vb = Cs.alloc cs (fresh_fp ()) in
  let out = Poseidon.hash2_gadget cs (Gadgets.v va) (Gadgets.v vb) in
  ignore out;
  (* the last allocated wire is part of the hash computation *)
  let last = Cs.var_of_int (Cs.num_vars cs - 1) in
  Cs.set_value cs last (fresh_fp ());
  Alcotest.(check bool) "cheat detected" false (Cs.is_satisfied cs)

let () =
  Alcotest.run "poseidon"
    [
      ( "native",
        [
          Alcotest.test_case "deterministic" `Quick test_permutation_deterministic;
          Alcotest.test_case "changes state" `Quick test_permutation_changes_state;
          Alcotest.test_case "bad width" `Quick test_bad_width;
          Alcotest.test_case "hash2" `Quick test_hash2_properties;
          Alcotest.test_case "length separation" `Quick test_hash_list_length_separation;
          Alcotest.test_case "mds behaviour" `Quick test_mds_invertible;
        ] );
      ( "gadget",
        [
          Alcotest.test_case "matches native" `Quick test_gadget_matches_native;
          Alcotest.test_case "hash_list matches native" `Quick
            test_hash_list_gadget_matches_native;
          Alcotest.test_case "cheaper than MiMC" `Quick test_gadget_constraint_count;
          Alcotest.test_case "merkle root" `Quick test_merkle_gadget;
          Alcotest.test_case "cheating detected" `Quick test_gadget_detects_cheating;
        ] );
    ]
