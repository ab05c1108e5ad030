module Codec = Zebra_codec.Codec
module Obs = Zebra_obs.Obs

let modulus =
  Nat.of_decimal_string
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"

(* An element is x R mod r, R = 2^279, in nine little-endian 31-bit
   limbs: the region at offset 0 of its own array. *)
type t = int array

(* ------------------------------------------------------------------ *)
(* BN254-specialised Montgomery kernels (DESIGN.md, "Field kernel
   discipline"), the one implementation of r's arithmetic.  An element
   holds a value below r, and r's limbs
     0x70000001 0x07c3eb27 0x66e5c245 0x419f4243 0x181585d2
     0x0a08b6d0 0x4c680a6e 0x32273970 0x30
   and -r^-1 mod 2^31 = 0x6fffffff are written into the kernels as
   literals; the check below ties them to [modulus] at start-up.

   [op_k d o a ao b bo] computes d[o..o+8] <- a[ao..] op b[bo..].  Each
   kernel reads every source limb before it writes a destination limb,
   so the destination may alias either source.  They use
   [Array.unsafe_get]/[unsafe_set], the only place in the code base that
   does: an [Fp.t] is nine limbs by construction and is passed at offset
   0, and a [Vec] slot's offset is bounds-checked once per call. *)

let nl = 9
let mask = 0x7fffffff

let () =
  if
    Nat.limbs modulus
    <> [| 0x70000001; 0x07c3eb27; 0x66e5c245; 0x419f4243; 0x181585d2; 0x0a08b6d0;
          0x4c680a6e; 0x32273970; 0x30 |]
    || (0x70000001 * 0x6fffffff) land mask <> mask
  then failwith "Fp: kernel literals do not match the modulus"

let set9 (d : int array) o x0 x1 x2 x3 x4 x5 x6 x7 x8 =
  Array.unsafe_set d o x0;
  Array.unsafe_set d (o + 1) x1;
  Array.unsafe_set d (o + 2) x2;
  Array.unsafe_set d (o + 3) x3;
  Array.unsafe_set d (o + 4) x4;
  Array.unsafe_set d (o + 5) x5;
  Array.unsafe_set d (o + 6) x6;
  Array.unsafe_set d (o + 7) x7;
  Array.unsafe_set d (o + 8) x8

(* d[o..] <- t, less r when t >= r; t < 2r in nine limbs. *)
let store_reduced d o t0 t1 t2 t3 t4 t5 t6 t7 t8 =
  let s0 = t0 - 0x70000001 in
  let s1 = t1 - 0x07c3eb27 + (s0 asr 31) in
  let s2 = t2 - 0x66e5c245 + (s1 asr 31) in
  let s3 = t3 - 0x419f4243 + (s2 asr 31) in
  let s4 = t4 - 0x181585d2 + (s3 asr 31) in
  let s5 = t5 - 0x0a08b6d0 + (s4 asr 31) in
  let s6 = t6 - 0x4c680a6e + (s5 asr 31) in
  let s7 = t7 - 0x32273970 + (s6 asr 31) in
  let s8 = t8 - 0x30 + (s7 asr 31) in
  if s8 < 0 then set9 d o t0 t1 t2 t3 t4 t5 t6 t7 t8
  else
    set9 d o (s0 land mask) (s1 land mask) (s2 land mask) (s3 land mask) (s4 land mask)
      (s5 land mask) (s6 land mask) (s7 land mask) s8

let add_k d o (a : int array) ao (b : int array) bo =
  let s = Array.unsafe_get a ao + Array.unsafe_get b bo in
  let t0 = s land mask in
  let s = Array.unsafe_get a (ao + 1) + Array.unsafe_get b (bo + 1) + (s lsr 31) in
  let t1 = s land mask in
  let s = Array.unsafe_get a (ao + 2) + Array.unsafe_get b (bo + 2) + (s lsr 31) in
  let t2 = s land mask in
  let s = Array.unsafe_get a (ao + 3) + Array.unsafe_get b (bo + 3) + (s lsr 31) in
  let t3 = s land mask in
  let s = Array.unsafe_get a (ao + 4) + Array.unsafe_get b (bo + 4) + (s lsr 31) in
  let t4 = s land mask in
  let s = Array.unsafe_get a (ao + 5) + Array.unsafe_get b (bo + 5) + (s lsr 31) in
  let t5 = s land mask in
  let s = Array.unsafe_get a (ao + 6) + Array.unsafe_get b (bo + 6) + (s lsr 31) in
  let t6 = s land mask in
  let s = Array.unsafe_get a (ao + 7) + Array.unsafe_get b (bo + 7) + (s lsr 31) in
  let t7 = s land mask in
  let t8 = Array.unsafe_get a (ao + 8) + Array.unsafe_get b (bo + 8) + (s lsr 31) in
  store_reduced d o t0 t1 t2 t3 t4 t5 t6 t7 t8

(* a - b, plus r when that borrows: [k] is -1 then, 0 otherwise. *)
let sub_k d o (a : int array) ao (b : int array) bo =
  let s = Array.unsafe_get a ao - Array.unsafe_get b bo in
  let t0 = s land mask in
  let s = Array.unsafe_get a (ao + 1) - Array.unsafe_get b (bo + 1) + (s asr 31) in
  let t1 = s land mask in
  let s = Array.unsafe_get a (ao + 2) - Array.unsafe_get b (bo + 2) + (s asr 31) in
  let t2 = s land mask in
  let s = Array.unsafe_get a (ao + 3) - Array.unsafe_get b (bo + 3) + (s asr 31) in
  let t3 = s land mask in
  let s = Array.unsafe_get a (ao + 4) - Array.unsafe_get b (bo + 4) + (s asr 31) in
  let t4 = s land mask in
  let s = Array.unsafe_get a (ao + 5) - Array.unsafe_get b (bo + 5) + (s asr 31) in
  let t5 = s land mask in
  let s = Array.unsafe_get a (ao + 6) - Array.unsafe_get b (bo + 6) + (s asr 31) in
  let t6 = s land mask in
  let s = Array.unsafe_get a (ao + 7) - Array.unsafe_get b (bo + 7) + (s asr 31) in
  let t7 = s land mask in
  let s = Array.unsafe_get a (ao + 8) - Array.unsafe_get b (bo + 8) + (s asr 31) in
  let k = s asr 31 and t8 = s land mask in
  let s = t0 + (0x70000001 land k) in
  let r0 = s land mask in
  let s = t1 + (0x07c3eb27 land k) + (s lsr 31) in
  let r1 = s land mask in
  let s = t2 + (0x66e5c245 land k) + (s lsr 31) in
  let r2 = s land mask in
  let s = t3 + (0x419f4243 land k) + (s lsr 31) in
  let r3 = s land mask in
  let s = t4 + (0x181585d2 land k) + (s lsr 31) in
  let r4 = s land mask in
  let s = t5 + (0x0a08b6d0 land k) + (s lsr 31) in
  let r5 = s land mask in
  let s = t6 + (0x4c680a6e land k) + (s lsr 31) in
  let r6 = s land mask in
  let s = t7 + (0x32273970 land k) + (s lsr 31) in
  let r7 = s land mask in
  set9 d o r0 r1 r2 r3 r4 r5 r6 r7 ((t8 + (0x30 land k) + (s lsr 31)) land mask)

(* CIOS Montgomery multiplication, d <- a b / 2^279 mod r, with both
   inner loops unrolled and b's limbs held in locals.  The accumulator
   t lives in locals and stays below 2r: with a_i < 2^31 and b < r,
   t + a_i b + q r < 2^32 r, so after the one-limb shift t < 2r < 2^255
   again and the product step's tenth limb never survives the reduction
   step.  Every partial sum stays below 2^62. *)
let mul_k d o (a : int array) ao (b : int array) bo =
  let b0 = Array.unsafe_get b bo and b1 = Array.unsafe_get b (bo + 1) in
  let b2 = Array.unsafe_get b (bo + 2) and b3 = Array.unsafe_get b (bo + 3) in
  let b4 = Array.unsafe_get b (bo + 4) and b5 = Array.unsafe_get b (bo + 5) in
  let b6 = Array.unsafe_get b (bo + 6) and b7 = Array.unsafe_get b (bo + 7) in
  let b8 = Array.unsafe_get b (bo + 8) in
  let t0 = ref 0 and t1 = ref 0 and t2 = ref 0 and t3 = ref 0 and t4 = ref 0 in
  let t5 = ref 0 and t6 = ref 0 and t7 = ref 0 and t8 = ref 0 in
  for i = ao to ao + 8 do
    let x = Array.unsafe_get a i in
    (* u <- t + x b, ten limbs *)
    let s = !t0 + (x * b0) in
    let u0 = s land mask in
    let s = !t1 + (x * b1) + (s lsr 31) in
    let u1 = s land mask in
    let s = !t2 + (x * b2) + (s lsr 31) in
    let u2 = s land mask in
    let s = !t3 + (x * b3) + (s lsr 31) in
    let u3 = s land mask in
    let s = !t4 + (x * b4) + (s lsr 31) in
    let u4 = s land mask in
    let s = !t5 + (x * b5) + (s lsr 31) in
    let u5 = s land mask in
    let s = !t6 + (x * b6) + (s lsr 31) in
    let u6 = s land mask in
    let s = !t7 + (x * b7) + (s lsr 31) in
    let u7 = s land mask in
    let s = !t8 + (x * b8) + (s lsr 31) in
    let u8 = s land mask and u9 = s lsr 31 in
    (* t <- (u + q r) / 2^31, q making the low limb vanish *)
    let q = (u0 * 0x6fffffff) land mask in
    let s = u1 + (q * 0x07c3eb27) + ((u0 + (q * 0x70000001)) lsr 31) in
    t0 := s land mask;
    let s = u2 + (q * 0x66e5c245) + (s lsr 31) in
    t1 := s land mask;
    let s = u3 + (q * 0x419f4243) + (s lsr 31) in
    t2 := s land mask;
    let s = u4 + (q * 0x181585d2) + (s lsr 31) in
    t3 := s land mask;
    let s = u5 + (q * 0x0a08b6d0) + (s lsr 31) in
    t4 := s land mask;
    let s = u6 + (q * 0x4c680a6e) + (s lsr 31) in
    t5 := s land mask;
    let s = u7 + (q * 0x32273970) + (s lsr 31) in
    t6 := s land mask;
    let s = u8 + (q * 0x30) + (s lsr 31) in
    t7 := s land mask;
    t8 := u9 + (s lsr 31)
  done;
  store_reduced d o !t0 !t1 !t2 !t3 !t4 !t5 !t6 !t7 !t8

let is_zero_k (a : int array) o =
  Array.unsafe_get a o lor Array.unsafe_get a (o + 1) lor Array.unsafe_get a (o + 2)
  lor Array.unsafe_get a (o + 3) lor Array.unsafe_get a (o + 4) lor Array.unsafe_get a (o + 5)
  lor Array.unsafe_get a (o + 6) lor Array.unsafe_get a (o + 7) lor Array.unsafe_get a (o + 8)
  = 0

(* Canonical limbs, so field equality is limb equality. *)
let equal a b =
  Array.unsafe_get a 0 = Array.unsafe_get b 0
  && Array.unsafe_get a 1 = Array.unsafe_get b 1
  && Array.unsafe_get a 2 = Array.unsafe_get b 2
  && Array.unsafe_get a 3 = Array.unsafe_get b 3
  && Array.unsafe_get a 4 = Array.unsafe_get b 4
  && Array.unsafe_get a 5 = Array.unsafe_get b 5
  && Array.unsafe_get a 6 = Array.unsafe_get b 6
  && Array.unsafe_get a 7 = Array.unsafe_get b 7
  && Array.unsafe_get a 8 = Array.unsafe_get b 8

(* ------------------------------------------------------------------ *)
(* Elements, their in-place operations and the pure operations, all on
   the kernels above.  Only mutate buffers you created: [zero], [one]
   and every element returned by the pure API may be shared — e.g.
   [Array.make d Fp.zero] aliases the global zero in every slot. *)

let buffer () : t = Array.make nl 0
let copy : t -> t = Array.copy
let set_zero dst = Array.fill dst 0 nl 0
let add_into ~dst a b = add_k dst 0 a 0 b 0
let sub_into ~dst a b = sub_k dst 0 a 0 b 0
let mul_into ~dst a b = mul_k dst 0 a 0 b 0
let sqr_into ~dst a = mul_into ~dst a a

(* Nat conversions: into Montgomery form by one multiplication by
   R^2 mod r, out of it by one multiplication by the plain 1. *)

(* The nine limbs of a natural below r, in a fresh array. *)
let limbs_of n =
  let l = Nat.limbs n in
  if Array.length l = nl then l
  else begin
    let d = buffer () in
    Array.blit l 0 d 0 (Array.length l);
    d
  end

let r2 = limbs_of (Nat.rem (Nat.shift_left Nat.one (2 * nl * 31)) modulus)
let plain_one = limbs_of Nat.one

let of_nat n =
  let d = limbs_of (if Nat.compare n modulus >= 0 then Nat.rem n modulus else n) in
  mul_into ~dst:d d r2;
  d

let to_nat x =
  let d = buffer () in
  mul_into ~dst:d x plain_one;
  Nat.of_limbs d

let zero = buffer ()
let one = of_nat Nat.one
let is_zero x = is_zero_k x 0
let is_one x = equal x one

let add a b =
  let dst = buffer () in
  add_into ~dst a b;
  dst

let sub a b =
  let dst = buffer () in
  sub_into ~dst a b;
  dst

let mul a b =
  let dst = buffer () in
  mul_into ~dst a b;
  dst

let neg x = sub zero x
let sqr x = mul x x
let minus_one = neg one
let is_minus_one x = equal x minus_one

(* A negative [n] is -(|n| - 1) - 1, so [min_int] does not overflow. *)
let of_int n =
  if n >= 0 then of_nat (Nat.of_int n) else sub (neg (of_nat (Nat.of_int (-(n + 1))))) one

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

let compare a b = Nat.compare (to_nat a) (to_nat b)

let inv x = of_nat (Nat.inverse (to_nat x) modulus)
let div a b = mul a (inv b)

(* Square-and-multiply over one accumulator. *)
let pow b e =
  let acc = copy one in
  for i = Nat.num_bits e - 1 downto 0 do
    sqr_into ~dst:acc acc;
    if Nat.testbit e i then mul_into ~dst:acc acc b
  done;
  acc

(* b^e for e < 0 is the inverse of b^-(e+1) b, so [min_int] does not
   overflow. *)
let pow_int b e =
  if e >= 0 then pow b (Nat.of_int e) else inv (mul (pow b (Nat.of_int (-(e + 1)))) b)

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
(* Flat element vectors (DESIGN.md, "Field kernel discipline"). *)

module Vec = struct
  type elt = t
  type t = { buf : int array; len : int }

  let create len = { buf = Array.make (len * nl) 0; len }
  let length v = v.len
  let get v i = Array.sub v.buf (i * nl) nl
  let set v i x = Array.blit x 0 v.buf (i * nl) nl
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

  (* The one bounds check of a slot kernel call: slot [i]'s first limb,
     which the kernels then read and write unchecked. *)
  let off v i = if i < 0 || i >= v.len then invalid_arg "Fp.Vec: slot out of range" else i * nl

  let is_zero v i = is_zero_k v.buf (off v i)

  (* Slot arithmetic.  [op d k a i b j] computes d.[k] <- a.[i] op b.[j];
     every kernel reads its sources before it writes, so any slot or
     element may be both destination and source. *)
  let add_slots d k a i b j = add_k d.buf (off d k) a.buf (off a i) b.buf (off b j)
  let sub_slots d k a i b j = sub_k d.buf (off d k) a.buf (off a i) b.buf (off b j)

  (* v.[i] <- v.[i] * e *)
  let mul_slot_elt v i e =
    let o = off v i in
    mul_k v.buf o v.buf o e 0

  (* dst <- a.[i] * b.[j] *)
  let mul_into_elt ~dst a i b j = mul_k dst 0 a.buf (off a i) b.buf (off b j)

  (* dst <- v.[i] * e *)
  let mul_elt_into ~dst v i e = mul_k dst 0 v.buf (off v i) e 0

  (* dst <- e - v.[i] *)
  let sub_elt_into ~dst e v i = sub_k dst 0 e 0 v.buf (off v i)

  (* v.[i] <- v.[i] + e *)
  let add_slot_elt v i e =
    let o = off v i in
    add_k v.buf o v.buf o e 0

  (* Radix-2 butterfly: (v.[p], v.[q]) <- (v.[p] + w v.[q], v.[p] - w v.[q]) *)
  let butterfly ~tmp v p q w =
    let op = off v p and oq = off v q in
    mul_k tmp 0 v.buf oq w 0;
    sub_k v.buf oq v.buf op tmp 0;
    add_k v.buf op v.buf op tmp 0
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
