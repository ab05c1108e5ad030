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

(* x^5 by two squarings and a product.  [keep] sees x^2, x^4 and x^5 in
   the order the gadget allocates their wires. *)
let pow5_keeping keep x =
  let x2 = Fp.sqr x in
  keep x2;
  let x4 = Fp.sqr x2 in
  keep x4;
  let x5 = Fp.mul x4 x in
  keep x5;
  x5

let pow5 = pow5_keeping ignore

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

(* The rounds with [sbox] for x^5, which the gadget replaces by one that
   also allocates the S-box's wires. *)
let permute_with sbox state =
  let half_full = full_rounds / 2 in
  for r = 0 to rounds - 1 do
    for i = 0 to width - 1 do
      state.(i) <- Fp.add state.(i) round_constants.(r).(i)
    done;
    let full = r < half_full || r >= rounds - half_full in
    if full then
      for i = 0 to width - 1 do
        state.(i) <- sbox state.(i)
      done
    else state.(0) <- sbox state.(0);
    mix state
  done

let permute state =
  if Array.length state <> width then invalid_arg "Poseidon.permute: bad state width";
  permute_with pow5 state

let hash2 a b =
  let state = [| Fp.zero; a; b |] in
  permute state;
  state.(0)

let hash_list ms =
  let len = Fp.of_int (List.length ms) in
  List.fold_left (fun h m -> hash2 h m) (hash2 Fp.zero len) ms

(* --- gadget --- *)

(* The symbolic permutation: lanes are expressions, and only the S-box
   multiplications allocate wires and constraints.  It runs once, to
   build [template]. *)

let pow5_gadget cs x =
  let x2 = G.square cs x in
  let x4 = G.square cs (G.v x2) in
  G.v (G.mul cs (G.v x4) x)

(* Canonicalise after every mix: without it the un-S-boxed lanes of the
   partial rounds would accumulate 3^57 terms. *)
let mix_exprs state =
  Array.init width (fun i ->
      let acc = ref [] in
      for j = 0 to width - 1 do
        acc := G.( +: ) !acc (G.scale mds.(i).(j) state.(j))
      done;
      G.simplify !acc)

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
    state := mix_exprs st
  done;
  !state

(* Every non-constant permutation makes the same 243 constraints up to
   the wire its S-boxes start at, and its inputs appear only in round 0's
   S-box constraints, each as a term [G.v] of coefficient one followed by
   the round constant.  So the symbolic permutation runs once, on a
   constraint board whose wires 1 and 2 hold the place of the inputs, and
   every call relocates what it made.  The template is built here, at
   initialisation like [round_constants], and not forced from a [lazy],
   which raises [Lazy.Undefined] in a domain that forces it while another
   one is. *)
type template = {
  lcs : Cs.lc array; (* each distinct term list of the constraints, and the output *)
  rows : (int * int * int) array; (* each constraint's A, B and C, as indices into [lcs] *)
  out : int; (* lane 0 after the last round *)
}

(* The template board's first S-box wire, after the constant wire and the
   two placeholders. *)
let first_wire = 3

let template =
  let cs = Cs.create () in
  let a = Cs.alloc cs Fp.zero and b = Cs.alloc cs Fp.zero in
  let out = (permute_gadget cs [| G.c Fp.zero; G.v a; G.v b |]).(0) in
  (* An S-box's input list is the A and B of its square and the B of its
     fifth power: relocating it once serves all three. *)
  let index = Hashtbl.create 512 and lcs = ref [] in
  let find lc =
    match Hashtbl.find_opt index lc with
    | Some i -> i
    | None ->
      let i = Hashtbl.length index in
      Hashtbl.add index lc i;
      lcs := lc :: !lcs;
      i
  in
  let rows = Array.map (fun (a, b, c) -> (find a, find b, find c)) (Cs.constraints cs) in
  let out = find out in
  { lcs = Array.of_list (List.rev !lcs); rows; out }

(* A template list on a board whose S-box wires start at [base], with
   [a] and [b] in place of the input terms.  The result shares every
   coefficient value with the template, so nothing may write one. *)
let relocate ~base a b lc =
  List.fold_right
    (fun ((k, w) as term) acc ->
      match Cs.int_of_var w with
      | 0 -> term :: acc
      | 1 -> a @ acc
      | 2 -> b @ acc
      | w -> (k, Cs.var_of_int (base + w - first_wire)) :: acc)
    lc []

(* A witness board keeps only the constraint count, so it is handed no
   terms. *)
let no_terms = Array.make (Array.length template.lcs) []

(* Constant folding mirrors Gadgets.mimc_hash: a compression whose inputs
   are both circuit constants (the IV/length-absorption step of
   hash_list_gadget) is computed natively and costs no constraints. *)
let hash2_gadget cs a b =
  match (G.as_const cs a, G.as_const cs b) with
  | Some ka, Some kb -> G.c (hash2 ka kb)
  | _ ->
    let base = Cs.num_vars cs in
    let alloc x = ignore (Cs.alloc cs x : Cs.var) in
    permute_with (pow5_keeping alloc) [| Fp.zero; G.eval cs a; G.eval cs b |];
    let lcs = if Cs.is_witness cs then no_terms else Array.map (relocate ~base a b) template.lcs in
    Array.iter (fun (i, j, k) -> Cs.enforce cs lcs.(i) lcs.(j) lcs.(k)) template.rows;
    relocate ~base a b template.lcs.(template.out)

let hash_list_gadget cs ms =
  let len = G.ci (List.length ms) in
  List.fold_left (fun h m -> hash2_gadget cs h m) (hash2_gadget cs (G.c Fp.zero) len) ms
