type var = int

type lc = (Fp.t * var) list

type cstr = { a : lc; b : lc; c : lc; label : string option }

type t = {
  mutable values : Fp.t array;
  mutable num_vars : int; (* includes the constant wire *)
  mutable num_inputs : int;
  mutable has_aux : bool;
  mutable constrs : cstr list; (* reversed; always [] on a witness board *)
  mutable n_constrs : int;
  wire_labels : (int, string) Hashtbl.t;
  witness : bool;
}

let one_var = 0

let make ~witness =
  {
    values = Array.make 64 Fp.zero;
    num_vars = 1;
    num_inputs = 0;
    has_aux = false;
    constrs = [];
    n_constrs = 0;
    wire_labels = Hashtbl.create 16;
    witness;
  }

let create () = make ~witness:false
let create_witness () = make ~witness:true
let is_witness cs = cs.witness

(* The readers below need the constraints a witness board never kept. *)
let constraint_board cs fn =
  if cs.witness then invalid_arg ("Cs." ^ fn ^ ": a witness board keeps no constraints")

let grow cs =
  if cs.num_vars >= Array.length cs.values then begin
    let bigger = Array.make (2 * Array.length cs.values) Fp.zero in
    Array.blit cs.values 0 bigger 0 cs.num_vars;
    cs.values <- bigger
  end

let push cs ?label v =
  grow cs;
  let idx = cs.num_vars in
  cs.values.(idx) <- v;
  cs.num_vars <- idx + 1;
  if not cs.witness then Option.iter (fun l -> Hashtbl.replace cs.wire_labels idx l) label;
  idx

let alloc cs ?label v =
  cs.has_aux <- true;
  push cs ?label v

let alloc_input cs ?label v =
  if cs.has_aux then invalid_arg "Cs.alloc_input: auxiliary wires already allocated";
  cs.num_inputs <- cs.num_inputs + 1;
  push cs ?label v

let wire_label cs v =
  constraint_board cs "wire_label";
  Hashtbl.find_opt cs.wire_labels v

let enforce cs ?label a b c =
  if not cs.witness then cs.constrs <- { a; b; c; label } :: cs.constrs;
  cs.n_constrs <- cs.n_constrs + 1

let value cs v = if v = one_var then Fp.one else cs.values.(v)

(* A term on the constant wire adds its coefficient as is: multiplying by
   one is exact, and would allocate. *)
let lc_value cs lc =
  List.fold_left
    (fun acc (coeff, v) -> Fp.add acc (if v = one_var then coeff else Fp.mul coeff cs.values.(v)))
    Fp.zero lc

let set_value cs v x =
  if v = 0 then invalid_arg "Cs.set_value: constant wire";
  cs.values.(v) <- x

let num_vars cs = cs.num_vars
let num_inputs cs = cs.num_inputs
let num_constraints cs = cs.n_constrs

let constraints cs =
  constraint_board cs "constraints";
  Array.of_list (List.rev_map (fun c -> (c.a, c.b, c.c)) cs.constrs)

let iter_constraints cs f =
  constraint_board cs "iter_constraints";
  List.iteri (fun i c -> f ~index:i ~label:c.label c.a c.b c.c) (List.rev cs.constrs)

let assignment cs =
  let a = Array.sub cs.values 0 cs.num_vars in
  a.(0) <- Fp.one;
  a

let public_inputs cs = Array.init cs.num_inputs (fun i -> cs.values.(i + 1))

let check cs c =
  Fp.equal (Fp.mul (lc_value cs c.a) (lc_value cs c.b)) (lc_value cs c.c)

let is_satisfied cs =
  constraint_board cs "is_satisfied";
  List.for_all (check cs) cs.constrs

let find_unsatisfied cs =
  constraint_board cs "find_unsatisfied";
  let indexed = List.rev cs.constrs in
  let rec go i = function
    | [] -> None
    | c :: rest ->
      if check cs c then go (i + 1) rest
      else Some (match c.label with Some l -> l | None -> Printf.sprintf "constraint #%d" i)
  in
  go 0 indexed

let var_of_int i = i
let int_of_var v = v
