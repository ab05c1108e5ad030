type expr = Cs.lc

let v var : expr = [ (Fp.one, var) ]
let c k : expr = if Fp.is_zero k then [] else [ (k, Cs.one_var) ]
let ci n = c (Fp.of_int n)

let ( +: ) (a : expr) (b : expr) : expr = a @ b
let scale k (a : expr) : expr = if Fp.is_zero k then [] else List.map (fun (co, var) -> (Fp.mul k co, var)) a
let ( -: ) a b = a +: List.map (fun (co, var) -> (Fp.neg co, var)) b

let eval = Cs.lc_value

(* Constant folding: an expression with only constant-wire terms needs no
   constraints (exp's constant base, the IV and length-absorption steps of
   the hash gadgets, whose inputs are literals). *)
let as_const cs e =
  if List.for_all (fun ((_ : Fp.t), var) -> var = Cs.one_var) e then Some (eval cs e) else None

let simplify (e : expr) : expr =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (coeff, var) ->
      match Hashtbl.find_opt tbl var with
      | None ->
        Hashtbl.replace tbl var coeff;
        order := var :: !order
      | Some c -> Hashtbl.replace tbl var (Fp.add c coeff))
    e;
  List.rev_map
    (fun var -> (Hashtbl.find tbl var, var))
    !order
  |> List.filter (fun ((c : Fp.t), _) -> not (Fp.is_zero c))

let mul cs ?label a b =
  let out = Cs.alloc cs ?label (Fp.mul (eval cs a) (eval cs b)) in
  Cs.enforce cs ?label a b (v out);
  out

let square cs a = mul cs a a

let inverse cs a =
  let x = eval cs a in
  let out = Cs.alloc cs ~label:"inverse" (if Fp.is_zero x then Fp.zero else Fp.inv x) in
  Cs.enforce cs ~label:"inverse" a (v out) (c Fp.one);
  out

let enforce_eq cs ?label a b = Cs.enforce cs ?label (a -: b) (c Fp.one) []

let enforce_bit cs x = Cs.enforce cs ~label:"booleanity" x (x -: c Fp.one) []

(* The "bit" wire-label prefix is a contract: Zebra_lint checks every wire
   so labelled carries a booleanity constraint. *)
let alloc_bit cs ?label b =
  let label = match label with None -> "bit" | Some l -> "bit:" ^ l in
  let var = Cs.alloc cs ~label (if b then Fp.one else Fp.zero) in
  enforce_bit cs (v var);
  var

(* out = 1 iff a = 0:  witness inv = a^-1 (or 0);
   constraints: a * inv = 1 - out  and  a * out = 0. *)
let is_zero cs a =
  let x = eval cs a in
  let zero = Fp.is_zero x in
  let out = Cs.alloc cs ~label:"is_zero.out" (if zero then Fp.one else Fp.zero) in
  let invw = Cs.alloc cs ~label:"is_zero.inv" (if zero then Fp.zero else Fp.inv x) in
  Cs.enforce cs ~label:"is_zero/inv" a (v invw) (c Fp.one -: v out);
  Cs.enforce cs ~label:"is_zero/out" a (v out) [];
  out

let eq cs a b = is_zero cs (a -: b)

(* out = b + cond * (a - b): one constraint.  [cond] is any boolean-valued
   expression, so gadgets returning boolean expressions (less_than, a
   complemented bit, ...) can steer a select without an adapter wire. *)
let select cs ~cond a b =
  let cv = eval cs cond in
  let out = Cs.alloc cs ~label:"select" (if Fp.equal cv Fp.one then eval cs a else eval cs b) in
  Cs.enforce cs ~label:"select" cond (a -: b) (v out -: b);
  out

let pack_bits bits =
  let acc = ref [] in
  let pow = ref Fp.one in
  Array.iter
    (fun b ->
      acc := !acc +: scale !pow (v b);
      pow := Fp.add !pow !pow)
    bits;
  !acc

let bits_of_expr cs a n =
  if n > 253 then invalid_arg "Gadgets.bits_of_expr: too many bits for soundness";
  let x = Nat.rem (Fp.to_nat (eval cs a)) (Nat.shift_left Nat.one n) in
  let bits = Array.init n (fun i -> alloc_bit cs (Nat.testbit x i)) in
  enforce_eq cs ~label:"bit recomposition" (pack_bits bits) a;
  bits

let less_than cs a b ~bits =
  if bits > 250 then invalid_arg "Gadgets.less_than: too many bits";
  (* d = a - b + 2^bits is in [1, 2^{bits+1} - 1]; its top bit is 1 iff a >= b. *)
  let shift = Fp.pow_int Fp.two bits in
  let d = a -: b +: c shift in
  let dbits = bits_of_expr cs d (bits + 1) in
  (* The complement of the (already boolean-constrained) top bit is the
     answer; returning it as an expression costs no further wire or
     constraint.  An earlier version allocated a copy wire here — ZL020's
     rank analysis showed it was always uniquely determined, i.e. pure
     redundancy, so it was stripped when the deployed circuits were
     regenerated for the Poseidon migration. *)
  c Fp.one -: v dbits.(bits)

let exp cs ~base ~bits =
  let n = Array.length bits in
  if n = 0 then invalid_arg "Gadgets.exp: empty exponent";
  (* Square-and-multiply, msb first; sel_i = 1 + b_i (base - 1).  When the
     base is a circuit constant the selector is linear (2 constraints/bit
     instead of 3). *)
  let const_base = as_const cs base in
  let acc = ref (c Fp.one) in
  for i = n - 1 downto 0 do
    let sq = square cs !acc in
    let sel =
      match const_base with
      | Some b -> c Fp.one +: scale (Fp.sub b Fp.one) (v bits.(i))
      | None -> c Fp.one +: v (mul cs (v bits.(i)) (base -: c Fp.one))
    in
    acc := v (mul cs (v sq) sel)
  done;
  (* The final value is already a single wire. *)
  match !acc with
  | [ (k, var) ] when Fp.equal k Fp.one -> var
  | e ->
    let out = Cs.alloc cs ~label:"exp" (eval cs e) in
    enforce_eq cs (v out) e;
    out

let pow7 cs x =
  let x2 = square cs x in
  let x4 = square cs (v x2) in
  let x6 = mul cs (v x4) (v x2) in
  mul cs (v x6) x

let mimc_encrypt cs ~key x =
  match (as_const cs key, as_const cs x) with
  | Some k, Some m -> c (Zebra_mimc.Mimc.encrypt ~key:k m)
  | _ ->
    let acc = ref x in
    for i = 0 to Zebra_mimc.Mimc.rounds - 1 do
      let t = !acc +: key +: c Zebra_mimc.Mimc.round_constants.(i) in
      acc := v (pow7 cs t)
    done;
    !acc +: key

let mimc_compress cs h m = mimc_encrypt cs ~key:h m +: m +: h

let mimc_hash cs ms =
  let len = ci (List.length ms) in
  List.fold_left (fun h m -> mimc_compress cs h m) (mimc_compress cs (c Fp.zero) len) ms

let merkle_root ~compress cs ~leaf ~path_bits ~siblings =
  let depth = Array.length path_bits in
  if Array.length siblings <> depth then invalid_arg "Gadgets.merkle_root: length mismatch";
  let cur = ref leaf in
  for i = 0 to depth - 1 do
    let bit = path_bits.(i) and sib = v siblings.(i) in
    (* bit = 1 means current node is the right child. *)
    let left = v (select cs ~cond:(v bit) sib !cur) in
    let right = sib +: !cur -: left in
    cur := compress cs left right
  done;
  !cur
