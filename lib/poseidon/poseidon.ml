module Cs = Zebra_r1cs.Cs
module G = Zebra_r1cs.Gadgets

let width = 3
let full_rounds = 8
let partial_rounds = 57
let rounds = full_rounds + partial_rounds

let round_constants =
  Array.init rounds (fun r ->
      Array.init width (fun lane ->
          let d =
            Zebra_hashing.Sha256.digest_string (Printf.sprintf "ZebraLancer.Poseidon.%d.%d" r lane)
          in
          Fp.of_bytes_be d))

(* Cauchy matrix m[i][j] = 1 / (x_i + y_j), x = 0..2, y = 3..5: all sums
   nonzero and distinct, hence invertible and MDS.  All width^2 cells
   are inverted in one shot (Montgomery's trick, [Fp.batch_inv]) — same
   values, one field inversion instead of nine. *)
let mds =
  let denoms =
    Array.init (width * width) (fun k -> Fp.of_int ((k / width) + (k mod width) + width))
  in
  let invs = Fp.batch_inv denoms in
  Array.init width (fun i -> Array.init width (fun j -> invs.((i * width) + j)))

let pow5 x =
  let x2 = Fp.sqr x in
  let x4 = Fp.sqr x2 in
  Fp.mul x4 x

let mix state =
  let out = Array.make width Fp.zero in
  for i = 0 to width - 1 do
    let acc = ref Fp.zero in
    for j = 0 to width - 1 do
      acc := Fp.add !acc (Fp.mul mds.(i).(j) state.(j))
    done;
    out.(i) <- !acc
  done;
  Array.blit out 0 state 0 width

let permute state =
  if Array.length state <> width then invalid_arg "Poseidon.permute: bad state width";
  let half_full = full_rounds / 2 in
  for r = 0 to rounds - 1 do
    for i = 0 to width - 1 do
      state.(i) <- Fp.add state.(i) round_constants.(r).(i)
    done;
    let full = r < half_full || r >= rounds - half_full in
    if full then
      for i = 0 to width - 1 do
        state.(i) <- pow5 state.(i)
      done
    else state.(0) <- pow5 state.(0);
    mix state
  done

let hash2 a b =
  let state = [| Fp.zero; a; b |] in
  permute state;
  state.(0)

let hash_list ms =
  let len = Fp.of_int (List.length ms) in
  List.fold_left (fun h m -> hash2 h m) (hash2 Fp.zero len) ms

(* --- gadget --- *)

let pow5_gadget cs x =
  let x2 = G.square cs x in
  let x4 = G.square cs (G.v x2) in
  G.v (G.mul cs (G.v x4) x)

(* Canonicalise after every mix: without it the un-S-boxed lanes of the
   partial rounds would accumulate 3^57 terms.  On a witness board each
   lane folds to one term, so no lane grows past a few terms. *)
let mix_exprs cs state =
  Array.init width (fun i ->
      let acc = ref [] in
      for j = 0 to width - 1 do
        acc := G.( +: ) !acc (G.scale mds.(i).(j) state.(j))
      done;
      G.simplify cs !acc)

let permute_gadget cs state =
  let state = ref state in
  let half_full = full_rounds / 2 in
  for r = 0 to rounds - 1 do
    let st = Array.mapi (fun i e -> G.( +: ) e (G.c round_constants.(r).(i))) !state in
    let full = r < half_full || r >= rounds - half_full in
    let st =
      if full then Array.map (pow5_gadget cs) st
      else Array.mapi (fun i e -> if i = 0 then pow5_gadget cs e else e) st
    in
    state := mix_exprs cs st
  done;
  !state

(* Constant folding mirrors Gadgets.mimc_hash: a compression whose inputs
   are both circuit constants (the IV/length-absorption step of
   hash_list_gadget) is computed natively and costs no constraints. *)
let hash2_gadget cs a b =
  match (G.as_const cs a, G.as_const cs b) with
  | Some ka, Some kb -> G.c (hash2 ka kb)
  | _ ->
    let out = permute_gadget cs [| G.c Fp.zero; a; b |] in
    out.(0)

let hash_list_gadget cs ms =
  let len = G.ci (List.length ms) in
  List.fold_left (fun h m -> hash2_gadget cs h m) (hash2_gadget cs (G.c Fp.zero) len) ms
