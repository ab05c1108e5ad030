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

(* One SHA-256 over every constraint of four boards: each constraint's A,
   B and C terms in order (wire id and coefficient bytes) and its label.
   The boards are [hash2_gadget] on (wire, wire), (constant, wire) and
   (two-term expression, empty expression), with each output expression,
   and the depth-2 CPLA circuit.  Vk digests do not see term order; this
   does, and it reads the coefficient values the boards share with the
   permutation template. *)
let constraints_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let terms tag lc =
    Printf.bprintf buf "%c%d:" tag (List.length lc);
    List.iter
      (fun (k, w) ->
        Printf.bprintf buf "%d=" (Cs.int_of_var w);
        Buffer.add_bytes buf (Fp.to_bytes_be k))
      lc
  in
  let dump cs =
    Cs.iter_constraints cs (fun ~index:_ ~label a b c ->
        terms 'A' a;
        terms 'B' b;
        terms 'C' c;
        match label with
        | None -> Buffer.add_string buf "-\n"
        | Some l -> Printf.bprintf buf "L%d:%s\n" (String.length l) l)
  in
  let hash2_board inputs =
    let cs = Cs.create () in
    let x = Gadgets.v (Cs.alloc cs (Fp.of_int 3)) and y = Gadgets.v (Cs.alloc cs (Fp.of_int 5)) in
    let a, b = inputs x y in
    let out = Poseidon.hash2_gadget cs a b in
    dump cs;
    terms 'O' out
  in
  hash2_board (fun x y -> (x, y));
  hash2_board (fun _ y -> (Gadgets.ci 7, y));
  hash2_board (fun x y -> (Gadgets.(x +: scale (Fp.of_int 9) y), []));
  let cs = Cs.create () in
  Zebra_anonauth.Cpla.synthesize_dummy ~depth:2 cs;
  dump cs;
  Zebra_hashing.Sha256.(to_hex (digest_string (Buffer.contents buf)))

let constraints_sha256 = "346354f1018901e1bf35f640148e55c2f70211dd0f067f3fa2e5ae1ec43f788b"

(* The digest holds before and after a set-up, a proof and a check in the
   same process: none of them writes into a coefficient it reads. *)
let test_constraints_digest () =
  let module Cpla = Zebra_anonauth.Cpla in
  let module Ra = Zebra_anonauth.Ra in
  Alcotest.(check string) "before" constraints_sha256 (constraints_digest ());
  let depth = 2 in
  let params =
    Cpla.setup_cached (Zebra_snark.Snark.Keycache.create ()) ~seed:"test_poseidon/setup" ~depth
  in
  let key = Cpla.keygen_rng ~rng:(Zebra_rng.Source.of_seed "test_poseidon/key") () in
  let ra = Ra.create ~depth () in
  let index = Ra.register ra key.Cpla.pk in
  let path = Ra.path ra index and root = Ra.root ra in
  let prefix = Fp.of_int 7 and message = Fp.of_int 11 in
  let att =
    Cpla.auth_rng ~rng:(Zebra_rng.Source.of_seed "test_poseidon/prove") params ~prefix ~message
      ~key ~index ~path ~root
  in
  Alcotest.(check bool) "verifies" true (Cpla.verify params ~prefix ~message ~root att);
  Alcotest.(check string) "after" constraints_sha256 (constraints_digest ())

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
          Alcotest.test_case "constraints digest" `Quick test_constraints_digest;
        ] );
    ]
