module Mimc = Zebra_mimc.Mimc
module Poseidon = Zebra_poseidon.Poseidon
module G = Zebra_r1cs.Gadgets

type t = Poseidon | Mimc

let default = Poseidon
let all = [ Poseidon; Mimc ]

let to_string = function Poseidon -> "poseidon" | Mimc -> "mimc"

(* --- native --- *)

let hash2 = function Poseidon -> Poseidon.hash2 | Mimc -> Mimc.hash2
let hash_list = function Poseidon -> Poseidon.hash_list | Mimc -> Mimc.hash_list

(* --- gadgets --- *)

let hash_gadget = function
  | Poseidon -> Poseidon.hash_list_gadget
  | Mimc -> G.mimc_hash

(* The gadget twin of [hash2], the Merkle tree compression. *)
let hash2_gadget = function
  | Poseidon -> Poseidon.hash2_gadget
  | Mimc -> fun cs a b -> G.mimc_hash cs [ a; b ]

(* Applied in full: a partial application would allocate a closure per call. *)
let merkle_root_gadget c cs ~leaf ~path_bits ~siblings =
  G.merkle_root ~compress:(hash2_gadget c) cs ~leaf ~path_bits ~siblings
