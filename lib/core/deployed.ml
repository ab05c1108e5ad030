module Cs = Zebra_r1cs.Cs
module Gadgets = Zebra_r1cs.Gadgets
module Cpla = Zebra_anonauth.Cpla
module Hash_composition = Zebra_hashcomp.Hash_composition

(* A depth-[d] Merkle membership circuit under the given hash
   composition, with fixed (deterministic) leaf and sibling values — the
   "hash gadget composition" shape the benches profile. *)
let merkle_circuit ~depth composition cs =
  let open Gadgets in
  let leaf = Cs.alloc cs ~label:"leaf" (Fp.of_int 7) in
  let bits = Array.init depth (fun i -> alloc_bit cs (i land 1 = 1)) in
  let siblings =
    Array.init depth (fun i -> Cs.alloc cs ~label:"sibling" (Fp.of_int (i + 1)))
  in
  ignore
    (Hash_composition.merkle_root_gadget composition cs ~leaf:(v leaf) ~path_bits:bits ~siblings
      : expr)

(* The protocol circuits.  Each one that hashes is parameterised by the
   hash composition and deployed as two registry arms ([<base>-poseidon] /
   [<base>-mimc]), so lint gates and benchmarks cover both sides of the
   ablation.  The reward statement hashes nothing, so each of its policy
   shapes is one circuit under its bare name. *)
let protocol =
  let reward policy n = `Hash_free (Reward_circuit.synthesize_dummy ~policy ~n) in
  let cpla depth = `Hashing (fun composition -> Cpla.synthesize_dummy ~composition ~depth) in
  [
    ("cpla-depth8", cpla 8);
    ("cpla-depth16", cpla 16);
    ("reward-majority-n3", reward (Policy.Majority { choices = 4 }) 3);
    ("reward-majority-n5", reward (Policy.Majority { choices = 4 }) 5);
    ("reward-quota-n3", reward (Policy.Majority_threshold { choices = 4; quota = 2 }) 3);
    ("reward-auction-n4", reward (Policy.Reverse_auction { winners = 2; max_bid = 15 }) 4);
    ( "reputation-link",
      `Hashing (fun composition -> Reputation.synthesize_dummy ~composition) );
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
      ("merkle-mimc-16", merkle_circuit ~depth:16 Hash_composition.Mimc);
      ("merkle-poseidon-16", merkle_circuit ~depth:16 Hash_composition.Poseidon);
    ]

let find name = List.assoc_opt name (circuits ())
let names () = List.map fst (circuits ())
