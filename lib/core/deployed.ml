module Cs = Zebra_r1cs.Cs
module Gadgets = Zebra_r1cs.Gadgets
module Cpla = Zebra_anonauth.Cpla
module Hash_composition = Zebra_hashcomp.Hash_composition

(* A depth-[d] Merkle membership circuit over the given compression
   gadget, with fixed (deterministic) leaf and sibling values — the "hash
   gadget composition" shape the benches profile. *)
let merkle_circuit ~depth root_gadget () =
  let cs = Cs.create () in
  let open Gadgets in
  let leaf = Cs.alloc cs ~label:"leaf" (Fp.of_int 7) in
  let bits = Array.init depth (fun i -> alloc_bit cs (i land 1 = 1)) in
  let siblings =
    Array.init depth (fun i -> Cs.alloc cs ~label:"sibling" (Fp.of_int (i + 1)))
  in
  ignore (root_gadget cs ~leaf:(v leaf) ~path_bits:bits ~siblings : expr);
  cs

(* The protocol circuits.  Each one that hashes is parameterised by the
   hash composition and deployed as two registry arms ([<base>-poseidon] /
   [<base>-mimc]), so lint gates and benchmarks cover both sides of the
   ablation.  The reward statement hashes nothing, so each of its policy
   shapes is one circuit under its bare name. *)
let protocol =
  let reward policy n = `Hash_free (fun () -> Reward_circuit.constraint_system ~policy ~n) in
  let cpla depth = `Hashing (fun composition () -> Cpla.constraint_system ~composition ~depth ()) in
  [
    ("cpla-depth8", cpla 8);
    ("cpla-depth16", cpla 16);
    ("reward-majority-n3", reward (Policy.Majority { choices = 4 }) 3);
    ("reward-majority-n5", reward (Policy.Majority { choices = 4 }) 5);
    ("reward-quota-n3", reward (Policy.Majority_threshold { choices = 4; quota = 2 }) 3);
    ("reward-auction-n4", reward (Policy.Reverse_auction { winners = 2; max_bid = 15 }) 4);
    ( "reputation-link",
      `Hashing (fun composition () -> Reputation.constraint_system ~composition ()) );
  ]

let circuits () =
  List.concat_map
    (function
      | base, `Hashing synth ->
        List.map
          (fun composition ->
            (Printf.sprintf "%s-%s" base (Hash_composition.to_string composition), synth composition))
          Hash_composition.all
      | name, `Hash_free synth -> [ (name, synth) ])
    protocol
  @ [
      ("merkle-mimc-16", merkle_circuit ~depth:16 Gadgets.merkle_root);
      ("merkle-poseidon-16", merkle_circuit ~depth:16 Zebra_poseidon.Poseidon.merkle_root_gadget);
    ]

let find name = List.assoc_opt name (circuits ())
let names () = List.map fst (circuits ())
