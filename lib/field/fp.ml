module Codec = Zebra_codec.Codec
module Obs = Zebra_obs.Obs

let modulus =
  Nat.of_decimal_string
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"

let ctx = Modular.create modulus

type t = Modular.mont

(* The kernels take raw limb arrays; an element is the region at offset 0. *)
let limbs (x : t) : int array = (x :> int array)

let zero = Modular.mont_zero ctx
let one = Modular.mont_one ctx

let of_nat n = Modular.to_mont ctx n
let to_nat x = Modular.of_mont ctx x

let of_int n =
  if n >= 0 then of_nat (Nat.of_int n)
  else Modular.mont_neg ctx (of_nat (Nat.of_int (-n)))

let two = of_int 2

let of_bytes_be b = of_nat (Nat.of_bytes_be b)

let to_bytes_be x = Nat.to_bytes_be ~len:32 (to_nat x)

let write w x = Codec.bytes w (to_bytes_be x)

let read r =
  let b = Codec.read_bytes r in
  if Bytes.length b <> 32 then raise (Codec.Decode_error "field element: need 32 bytes");
  let n = Nat.of_bytes_be b in
  if Nat.compare n modulus >= 0 then raise (Codec.Decode_error "field element: not canonical");
  of_nat n

let to_decimal_string x = Nat.to_decimal_string (to_nat x)

let equal = Modular.mont_equal
let is_zero x = Modular.mont_equal x zero
let compare a b = Nat.compare (to_nat a) (to_nat b)

let add = Modular.mont_add ctx
let sub = Modular.mont_sub ctx
let neg = Modular.mont_neg ctx
let mul = Modular.mont_mul ctx
let sqr = Modular.mont_sqr ctx
let inv x = of_nat (Modular.inverse (to_nat x) modulus)
let div a b = mul a (inv b)
let pow b e = Modular.mont_pow ctx b e
let pow_int b e =
  if e >= 0 then pow b (Nat.of_int e) else inv (pow b (Nat.of_int (-e)))

let generator = of_int 5
let two_adicity = 28

(* 5^((r-1)/2^28) generates the 2^28-torsion; square down for smaller k. *)
let max_root =
  let odd_part = Nat.shift_right (Nat.sub modulus Nat.one) two_adicity in
  pow generator odd_part

let root_of_unity k =
  if k < 0 || k > two_adicity then invalid_arg "Fp.root_of_unity: k out of range";
  let r = ref max_root in
  for _ = 1 to two_adicity - k do
    r := sqr !r
  done;
  !r

let random random_bytes =
  of_nat (Prime.random_below ~random_bytes:(fun n -> random_bytes n) modulus)

let batch_inv a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n one in
    let acc = ref one in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      if is_zero a.(i) then raise Division_by_zero;
      acc := mul !acc a.(i)
    done;
    let inv_acc = ref (inv !acc) in
    let out = Array.make n one in
    for i = n - 1 downto 0 do
      out.(i) <- mul !inv_acc prefix.(i);
      inv_acc := mul !inv_acc a.(i)
    done;
    out
  end

(* ------------------------------------------------------------------ *)
(* In-place kernels and flat element vectors (DESIGN.md, "Field kernel
   discipline").  Only mutate buffers you created: [zero], [one] and
   every element returned by the pure API may be shared — e.g.
   [Array.make d Fp.zero] aliases the global zero in every slot. *)

let nl = Modular.num_limbs ctx

let buffer () : t = Modular.mont_buffer ctx
let copy : t -> t = Modular.mont_copy
let set ~dst x = Modular.mont_set ~dst x
let set_zero dst = Modular.mont_set_zero dst
let add_into ~dst a b = Modular.add_off ctx (limbs dst) 0 (limbs a) 0 (limbs b) 0
let sub_into ~dst a b = Modular.sub_off ctx (limbs dst) 0 (limbs a) 0 (limbs b) 0
let mul_into ~dst a b = Modular.mul_off ctx (limbs dst) 0 (limbs a) 0 (limbs b) 0
let sqr_into ~dst a = Modular.mul_off ctx (limbs dst) 0 (limbs a) 0 (limbs a) 0

let minus_one = neg one
let is_one x = Modular.mont_equal x one
let is_minus_one x = Modular.mont_equal x minus_one

module Vec = struct
  type elt = t
  type t = { buf : int array; len : int }

  let create len = { buf = Array.make (len * nl) 0; len }
  let length v = v.len
  let get v i = Modular.mont_of_region ctx v.buf (i * nl)
  let set v i x = Array.blit (limbs x) 0 v.buf (i * nl) nl
  let copy v = { buf = Array.copy v.buf; len = v.len }
  let blit src si dst di k = Array.blit src.buf (si * nl) dst.buf (di * nl) (k * nl)

  let of_array a =
    let v = create (Array.length a) in
    Array.iteri (fun i x -> set v i x) a;
    v

  let to_array v = Array.init v.len (get v)

  let swap v i j =
    let oi = i * nl and oj = j * nl in
    for k = 0 to nl - 1 do
      let t = v.buf.(oi + k) in
      v.buf.(oi + k) <- v.buf.(oj + k);
      v.buf.(oj + k) <- t
    done

  let is_zero v i = Modular.is_zero_off ctx v.buf (i * nl)

  (* Slot arithmetic.  [op d k a i b j] computes d.[k] <- a.[i] op b.[j];
     the destination slot may coincide with a source slot for add/sub
     (elementwise kernels), never for multiplications (CIOS uses the
     destination as accumulator — multiplications below target a
     caller-owned element, which cannot overlap a vector's buffer). *)
  let add_slots d k a i b j =
    Modular.add_off ctx d.buf (k * nl) a.buf (i * nl) b.buf (j * nl)

  let sub_slots d k a i b j =
    Modular.sub_off ctx d.buf (k * nl) a.buf (i * nl) b.buf (j * nl)

  (* v.[i] <- v.[i] * e, staged through the caller's scratch element. *)
  let mul_slot_elt ~tmp v i e =
    Modular.mul_off ctx (limbs tmp) 0 v.buf (i * nl) (limbs e) 0;
    Array.blit (limbs tmp) 0 v.buf (i * nl) nl

  (* dst <- a.[i] * b.[j] *)
  let mul_into_elt ~dst a i b j =
    Modular.mul_off ctx (limbs dst) 0 a.buf (i * nl) b.buf (j * nl)

  (* dst <- v.[i] * e *)
  let mul_elt_into ~dst v i e =
    Modular.mul_off ctx (limbs dst) 0 v.buf (i * nl) (limbs e) 0

  (* dst <- e - v.[i] *)
  let sub_elt_into ~dst e v i =
    Modular.sub_off ctx (limbs dst) 0 (limbs e) 0 v.buf (i * nl)

  (* v.[i] <- v.[i] + e *)
  let add_slot_elt v i e = Modular.add_off ctx v.buf (i * nl) v.buf (i * nl) (limbs e) 0

  (* Radix-2 butterfly: (v.[p], v.[q]) <- (v.[p] + w v.[q], v.[p] - w v.[q]) *)
  let butterfly ~tmp v p q w =
    mul_elt_into ~dst:tmp v q w;
    Modular.sub_off ctx v.buf (q * nl) v.buf (p * nl) (limbs tmp) 0;
    Modular.add_off ctx v.buf (p * nl) v.buf (p * nl) (limbs tmp) 0
end

(* Bucketed sparse dot products (Pippenger's bucket idea transposed to a
   field-simulated SNARK, where the "exponentiations" of a multi-exp are
   plain field multiplications).  Constraint-row coefficients are
   overwhelmingly +-1 (boolean gadgets, Poseidon/MiMC wiring) and witness
   values often 0/1, so terms are bucketed by coefficient class: the +1
   and -1 buckets take one limb addition per term and are folded into
   the accumulator with no multiplication at all; only the generic
   bucket multiplies.  Field addition is exact, associative and
   commutative, so the regrouped sum is limb-identical to the naive
   left-to-right sum — no output byte moves. *)

let classify x : char = if is_one x then '\001' else if is_minus_one x then '\002' else '\000'

let classify_coefs a =
  let b = Bytes.create (Array.length a) in
  Array.iteri (fun i x -> Bytes.unsafe_set b i (classify x)) a;
  b

type dot_scratch = { ds_pos : t; ds_neg : t; ds_tmp : t }

let dot_scratch () = { ds_pos = buffer (); ds_neg = buffer (); ds_tmp = buffer () }

let c_terms_pos = Obs.Counter.make "fp.dot.terms_pos"
let c_terms_neg = Obs.Counter.make "fp.dot.terms_neg"
let c_terms_generic = Obs.Counter.make "fp.dot.terms_generic"

let dot_sparse_acc ~scratch ~acc ~cls ~coefs ~idx ~w ~lo ~hi =
  let { ds_pos; ds_neg; ds_tmp } = scratch in
  set_zero ds_pos;
  set_zero ds_neg;
  let n_pos = ref 0 and n_neg = ref 0 and n_generic = ref 0 in
  for k = lo to hi - 1 do
    let wi = w.(idx.(k)) in
    if not (is_zero wi) then
      match Bytes.unsafe_get cls k with
      | '\001' ->
          incr n_pos;
          add_into ~dst:ds_pos ds_pos wi
      | '\002' ->
          incr n_neg;
          add_into ~dst:ds_neg ds_neg wi
      | _ ->
          incr n_generic;
          if is_one wi then add_into ~dst:acc acc coefs.(k)
          else begin
            mul_into ~dst:ds_tmp coefs.(k) wi;
            add_into ~dst:acc acc ds_tmp
          end
  done;
  add_into ~dst:acc acc ds_pos;
  sub_into ~dst:acc acc ds_neg;
  if Obs.enabled () then begin
    Obs.Counter.add c_terms_pos !n_pos;
    Obs.Counter.add c_terms_neg !n_neg;
    Obs.Counter.add c_terms_generic !n_generic
  end

let pp fmt x = Format.pp_print_string fmt (to_decimal_string x)
