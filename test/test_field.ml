(* Field and FFT tests. *)

open Zebra_field
module Codec = Zebra_codec.Codec

let rng = Zebra_rng.Chacha20.create ~seed:"test_field"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let fresh_fp () = Fp.random random_bytes

let fp = Alcotest.testable Fp.pp Fp.equal

let qtest name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* Generator: random field element via an int seed expanded through ChaCha. *)
let arb_fp =
  QCheck2.Gen.map
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "fp-%d" seed) in
      Fp.random (Zebra_rng.Chacha20.bytes r))
    QCheck2.Gen.(int_bound 1_000_000)

module Nat = Zebra_numeric.Nat
module Modular = Zebra_numeric.Modular

(* The generic Montgomery engine's context for r: the oracle Fp's own
   kernels must match. *)
let generic = Modular.create Fp.modulus

(* The element whose Montgomery limbs are [limbs] (little-endian base
   2^31, below r): L R^-1 mod r, R = 2^279. *)
let of_mont_limbs limbs =
  let r_inv = Nat.inverse (Nat.shift_left Nat.one 279) Fp.modulus in
  Fp.of_nat (Nat.rem (Nat.mul (Nat.of_limbs limbs) r_inv) Fp.modulus)

(* Saturated limbs, where every carry chain runs its full length: each
   limb 2^31 - 1 below a top limb of 47 (r's is 48), and below a top of
   0. *)
let saturated_limbs =
  [
    Array.init 9 (fun i -> if i = 8 then 47 else 0x7fffffff);
    Array.init 9 (fun i -> if i = 8 then 0 else 0x7fffffff);
  ]

let saturated = List.map of_mont_limbs saturated_limbs

(* Edge-heavy generator: the kernels and the inverse must hold at 0, 1,
   r-1, r-2 and on saturated limbs as well as on random elements. *)
let arb_fp_edge =
  QCheck2.Gen.frequency
    ([
       (6, arb_fp);
       (1, QCheck2.Gen.return Fp.zero);
       (1, QCheck2.Gen.return Fp.one);
       (1, QCheck2.Gen.return (Fp.neg Fp.one));
       (1, QCheck2.Gen.return (Fp.neg Fp.two));
     ]
    @ List.map (fun x -> (1, QCheck2.Gen.return x)) saturated)

(* --- Fp --- *)

let test_constants () =
  Alcotest.check fp "0+1=1" Fp.one (Fp.add Fp.zero Fp.one);
  Alcotest.check fp "1+1=2" Fp.two (Fp.add Fp.one Fp.one);
  Alcotest.check fp "p=0" Fp.zero (Fp.of_nat Fp.modulus)

let test_negative_of_int () =
  Alcotest.check fp "-1 + 1 = 0" Fp.zero (Fp.add (Fp.of_int (-1)) Fp.one);
  Alcotest.check fp "-5 = neg 5" (Fp.neg (Fp.of_int 5)) (Fp.of_int (-5))

(* -min_int overflows back to min_int, so it cannot be negated first. *)
let test_of_int_extremes () =
  Alcotest.check fp "of_int min_int" (Fp.neg (Fp.of_nat (Nat.pow Nat.two 62))) (Fp.of_int min_int);
  Alcotest.check fp "of_int (min_int + 1)" (Fp.neg (Fp.of_int max_int)) (Fp.of_int (min_int + 1))

(* The same overflow for exponents: b^min_int is the inverse of b^(2^62). *)
let test_pow_int_extremes () =
  let e62 = Nat.pow Nat.two 62 in
  Alcotest.check fp "pow_int two min_int" (Fp.inv (Fp.pow Fp.two e62)) (Fp.pow_int Fp.two min_int);
  Alcotest.check fp "pow_int two (min_int + 1)"
    (Fp.inv (Fp.pow Fp.two (Nat.sub e62 Nat.one)))
    (Fp.pow_int Fp.two (min_int + 1))

let test_bytes_roundtrip () =
  let x = fresh_fp () in
  Alcotest.check fp "roundtrip" x (Codec.decode Fp.read (Codec.encode Fp.write x))

let test_bytes_noncanonical () =
  let b = Codec.encode Codec.bytes (Bytes.make 32 '\xff') in
  Alcotest.check_raises "non-canonical rejected"
    (Codec.Decode_error "field element: not canonical") (fun () ->
      ignore (Codec.decode Fp.read b))

let test_root_of_unity () =
  let w = Fp.root_of_unity 10 in
  Alcotest.check fp "w^1024 = 1" Fp.one (Fp.pow_int w 1024);
  Alcotest.(check bool) "w^512 <> 1" false (Fp.equal Fp.one (Fp.pow_int w 512))

let test_max_two_adic_root () =
  let w = Fp.root_of_unity 28 in
  Alcotest.check fp "order 2^28" Fp.one (Fp.pow w (Zebra_numeric.Nat.pow Zebra_numeric.Nat.two 28));
  Alcotest.(check bool) "primitive" false
    (Fp.equal Fp.one (Fp.pow w (Zebra_numeric.Nat.pow Zebra_numeric.Nat.two 27)))

let test_batch_inv () =
  let a = Array.init 20 (fun _ -> fresh_fp ()) in
  let inv = Fp.batch_inv a in
  Array.iteri (fun i x -> Alcotest.check fp "x * x^-1" Fp.one (Fp.mul x inv.(i))) a

let test_batch_inv_zero () =
  Alcotest.check_raises "zero in batch" Division_by_zero (fun () ->
      ignore (Fp.batch_inv [| Fp.one; Fp.zero |]))

let prop_field_laws =
  qtest "field laws" (QCheck2.Gen.triple arb_fp arb_fp arb_fp) (fun (a, b, c) ->
      Fp.equal (Fp.mul a (Fp.add b c)) (Fp.add (Fp.mul a b) (Fp.mul a c))
      && Fp.equal (Fp.mul a b) (Fp.mul b a)
      && Fp.equal (Fp.add (Fp.sub a b) b) a
      && Fp.equal (Fp.sub Fp.zero a) (Fp.neg a))

let prop_inverse =
  qtest "multiplicative inverse" arb_fp_edge (fun a ->
      Fp.is_zero a || Fp.equal Fp.one (Fp.mul a (Fp.inv a)))

let test_inverse_of_zero () =
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (Fp.inv Fp.zero))

let prop_sqr =
  qtest "sqr = mul self" arb_fp (fun a -> Fp.equal (Fp.sqr a) (Fp.mul a a))

(* --- in-place kernels, Vec, bucketed dots --- *)

let nat_add a b = Nat.rem (Nat.add a b) Fp.modulus
let nat_sub a b = Nat.rem (Nat.sub (Nat.add a Fp.modulus) b) Fp.modulus
let nat_mul a b = Nat.rem (Nat.mul a b) Fp.modulus
let nat_neg a = Nat.rem (Nat.sub Fp.modulus a) Fp.modulus
let nat = Alcotest.testable Nat.pp Nat.equal

(* The Montgomery limbs of x are those of x 2^279 mod r, computed in Nat. *)
let test_saturated_limbs () =
  List.iter2
    (fun limbs x ->
      let mont = Nat.limbs (Nat.rem (Nat.shift_left (Fp.to_nat x) 279) Fp.modulus) in
      Alcotest.(check (array int)) "Montgomery limbs" limbs
        (Array.init 9 (fun i -> if i < Array.length mont then mont.(i) else 0)))
    saturated_limbs saturated

(* [x] holds [expected] in canonical limbs: [Fp.equal] compares limbs,
   and [of_nat] gives the canonical limbs for the value. *)
let holds x expected = Nat.equal (Fp.to_nat x) expected && Fp.equal x (Fp.of_nat expected)

(* The generic engine's whole-value operation [op] on the generic
   context, read back as a natural. *)
let generic_op op a b =
  let mont x = Modular.to_mont generic (Fp.to_nat x) in
  Modular.of_mont generic (op generic (mont a) (mont b))

(* Every in-place form of a binary op: a fresh destination, and the
   destination on the first source, on the second, and on both. *)
let into_forms into a b =
  let fresh = Fp.buffer () in
  into ~dst:fresh a b;
  let on_a = Fp.copy a in
  into ~dst:on_a on_a b;
  let on_b = Fp.copy b in
  into ~dst:on_b a on_b;
  [ fresh; on_a; on_b ]

(* [a op a] with the destination on both sources. *)
let on_both into a =
  let both = Fp.copy a in
  into ~dst:both both both;
  both

let prop_kernels_generic =
  qtest "specialised = generic = Nat" ~count:300 (QCheck2.Gen.pair arb_fp_edge arb_fp_edge)
    (fun (a, b) ->
      let an = Fp.to_nat a and bn = Fp.to_nat b in
      let check name pure into generic_kernel expected =
        let results = pure a b :: into_forms into a b in
        Nat.equal (generic_op generic_kernel a b) expected
        && List.for_all (fun x -> holds x expected) results
        || QCheck2.Test.fail_reportf "%s disagrees on %a, %a" name Fp.pp a Fp.pp b
      in
      let sqr_dst = Fp.buffer () and sqr_on_a = Fp.copy a in
      Fp.sqr_into ~dst:sqr_dst a;
      Fp.sqr_into ~dst:sqr_on_a sqr_on_a;
      check "add" Fp.add Fp.add_into Modular.mont_add (nat_add an bn)
      && check "sub" Fp.sub Fp.sub_into Modular.mont_sub (nat_sub an bn)
      && check "mul" Fp.mul Fp.mul_into Modular.mont_mul (nat_mul an bn)
      && holds (on_both Fp.add_into a) (nat_add an an)
      && holds (on_both Fp.sub_into a) Nat.zero
      && holds (on_both Fp.mul_into a) (nat_mul an an)
      && List.for_all (fun x -> holds x (nat_mul an an)) [ Fp.sqr a; sqr_dst; sqr_on_a ]
      && Nat.equal (generic_op (fun g x _ -> Modular.mont_neg g x) a a) (nat_neg an)
      && holds (Fp.neg a) (nat_neg an))

let test_mul_into_alias () =
  let x = fresh_fp () and y = fresh_fp () in
  let xn = Fp.to_nat x and yn = Fp.to_nat y in
  let a = Fp.copy x in
  Fp.mul_into ~dst:a a y;
  Alcotest.check nat "mul_into ~dst:a a b" (nat_mul xn yn) (Fp.to_nat a);
  let a = Fp.copy x in
  Fp.sqr_into ~dst:a a;
  Alcotest.check nat "sqr_into ~dst:a a" (nat_mul xn xn) (Fp.to_nat a)

(* Fp.pow is square-and-multiply on Fp's kernels; the generic engine's
   sliding-window [Modular.pow] on naturals is its reference, at the
   exponent edges 0, 1, r-2 and r-1, around the window's width, and on
   random 254- and 256-bit exponents. *)
let prop_pow_window =
  qtest "sliding-window pow = square-and-multiply" ~count:60 QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "pow-%d" seed) in
      let rb n = Zebra_rng.Chacha20.bytes r n in
      let b = Fp.random rb in
      let bn = Fp.to_nat b in
      List.for_all
        (fun e -> holds (Fp.pow b e) (Modular.pow generic bn e))
        ([
           Nat.zero; Nat.one; Nat.sub Fp.modulus Nat.two; Nat.sub Fp.modulus Nat.one;
           Fp.to_nat (Fp.random rb); Nat.of_bytes_be (rb 32);
         ]
        @ List.map Nat.of_int [ 2; 15; 16; 17; 255; 257 ]))

(* [of_nat] reduces and [to_nat] inverts it, at r's edges, beyond r and
   on random values; the square ties both to the kernels' Montgomery
   form. *)
let test_nat_conversions () =
  let r = Fp.modulus in
  let edges =
    [ Nat.zero; Nat.one; Nat.sub r Nat.one; r; Nat.add r Nat.one;
      Nat.sub (Nat.shift_left Nat.one 256) Nat.one ]
  in
  let random k = Nat.of_bytes_be (random_bytes k) in
  let randoms = List.concat_map (fun k -> List.init 8 (fun _ -> random k)) [ 31; 32; 40 ] in
  List.iter
    (fun n ->
      let x = Fp.of_nat n and m = Nat.rem n r in
      let name = Nat.to_decimal_string n in
      Alcotest.check nat ("to_nat (of_nat n) = n mod r, n = " ^ name) m (Fp.to_nat x);
      Alcotest.check fp ("of_nat (to_nat x) = x, n = " ^ name) x (Fp.of_nat (Fp.to_nat x));
      Alcotest.check nat ("of_nat n squared, n = " ^ name) (nat_mul m m) (Fp.to_nat (Fp.sqr x)))
    (edges @ randoms)

let prop_bucket_dot =
  qtest "bucketed sparse dot = naive sum" ~count:200 QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "dot-%d" seed) in
      let rb n = Zebra_rng.Chacha20.bytes r n in
      let byte () = Char.code (Bytes.get (rb 1) 0) in
      let nw = 1 + (byte () mod 8) in
      (* Witness values skew to 0/1 like real boolean wires. *)
      let w =
        Array.init nw (fun _ ->
            match byte () mod 4 with 0 -> Fp.zero | 1 -> Fp.one | _ -> Fp.random rb)
      in
      (* Coefficients skew to +-1 like real constraint rows. *)
      let len = byte () mod 24 in
      let coefs =
        Array.init len (fun _ ->
            match byte () mod 4 with 0 -> Fp.one | 1 -> Fp.neg Fp.one | _ -> Fp.random rb)
      in
      let idx = Array.init len (fun _ -> byte () mod nw) in
      let cls = Fp.classify_coefs coefs in
      let scratch = Fp.dot_scratch () in
      let check lo hi =
        let init = Fp.random rb in
        let acc = Fp.copy init in
        Fp.dot_sparse_acc ~scratch ~acc ~cls ~coefs ~idx ~w ~lo ~hi;
        let naive = ref init in
        for k = lo to hi - 1 do
          naive := Fp.add !naive (Fp.mul coefs.(k) w.(idx.(k)))
        done;
        Fp.equal acc !naive
      in
      check 0 len && check (len / 3) (len - (len / 4)))

let test_vec_roundtrip () =
  let a = Array.init 10 (fun _ -> fresh_fp ()) in
  let v = Fp.Vec.of_array a in
  Alcotest.(check int) "length" 10 (Fp.Vec.length v);
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "get %d" i) x (Fp.Vec.get v i)) a;
  let b = Fp.Vec.to_array v in
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "to_array %d" i) x b.(i)) a;
  Fp.Vec.swap v 0 9;
  Alcotest.check fp "swap" a.(9) (Fp.Vec.get v 0);
  (* [set] copies the value in: mutating vector slots afterwards must
     never reach back into the element we stored. *)
  let x = fresh_fp () in
  let x_saved = Fp.copy x in
  Fp.Vec.set v 1 x;
  Fp.Vec.set v 1 Fp.zero;
  Alcotest.check fp "set copies" x_saved x;
  Alcotest.(check bool) "is_zero" true (Fp.Vec.is_zero v 1)

let test_vec_slot_ops () =
  let x = fresh_fp () and y = fresh_fp () and c = fresh_fp () in
  let xn = Fp.to_nat x and yn = Fp.to_nat y and cn = Fp.to_nat c in
  let check name expected e =
    Alcotest.check nat name expected (Fp.to_nat e);
    Alcotest.check fp (name ^ ": canonical") (Fp.of_nat expected) e
  in
  let tmp = Fp.buffer () in
  let v = Fp.Vec.of_array [| x; y |] in
  Fp.Vec.butterfly ~tmp v 0 1 c;
  check "butterfly +" (nat_add xn (nat_mul cn yn)) (Fp.Vec.get v 0);
  check "butterfly -" (nat_sub xn (nat_mul cn yn)) (Fp.Vec.get v 1);
  let v = Fp.Vec.of_array [| x; y |] in
  Fp.Vec.mul_slot_elt v 0 c;
  check "mul_slot_elt" (nat_mul xn cn) (Fp.Vec.get v 0);
  Fp.Vec.add_slots v 0 v 0 v 1;
  check "add_slots (aliased dst)" (nat_add (nat_mul xn cn) yn) (Fp.Vec.get v 0);
  let v = Fp.Vec.of_array [| x; y |] in
  Fp.Vec.mul_into_elt ~dst:tmp v 0 v 1;
  check "mul_into_elt" (nat_mul xn yn) tmp;
  Fp.Vec.mul_elt_into ~dst:tmp v 1 c;
  check "mul_elt_into" (nat_mul yn cn) tmp;
  Fp.Vec.sub_elt_into ~dst:tmp c v 1;
  check "sub_elt_into" (nat_sub cn yn) tmp;
  let v = Fp.Vec.of_array [| x |] in
  Fp.Vec.add_slot_elt v 0 c;
  check "add_slot_elt" (nat_add xn cn) (Fp.Vec.get v 0)

(* Every slot kernel at the first and last slot of a vector, against the
   pure ops on the values read out before the call.  The two-slot ops run
   with one vector as destination and both sources, so they cover every
   coincidence of slots too. *)
let prop_vec_slot_kernels =
  qtest "vec slot kernels at both ends" ~count:100
    (QCheck2.Gen.triple arb_fp_edge arb_fp_edge arb_fp_edge) (fun (x, y, c) ->
      let len = 4 in
      let ends = [ 0; len - 1 ] in
      let fresh () =
        let v = Fp.Vec.create len in
        Fp.Vec.set v 0 x;
        Fp.Vec.set v (len - 1) y;
        v
      in
      let ok name got want =
        Fp.equal got want || QCheck2.Test.fail_reportf "%s: %a, expected %a" name Fp.pp got Fp.pp want
      in
      let dst = Fp.buffer () and tmp = Fp.buffer () in
      let each f = List.for_all f ends in
      each (fun k ->
          each (fun i ->
              each (fun j ->
                  let slots op pure =
                    let v = fresh () in
                    let want = pure (Fp.Vec.get v i) (Fp.Vec.get v j) in
                    op v k v i v j;
                    ok "slots" (Fp.Vec.get v k) want
                  in
                  slots Fp.Vec.add_slots Fp.add && slots Fp.Vec.sub_slots Fp.sub)))
      && each (fun i ->
             each (fun j ->
                 let v = fresh () in
                 Fp.Vec.mul_into_elt ~dst v i v j;
                 ok "mul_into_elt" dst (Fp.mul (Fp.Vec.get v i) (Fp.Vec.get v j))))
      && each (fun i ->
             let v = fresh () in
             let vi = Fp.Vec.get v i in
             Fp.Vec.mul_elt_into ~dst v i c;
             ok "mul_elt_into" dst (Fp.mul vi c)
             && (Fp.Vec.sub_elt_into ~dst c v i;
                 ok "sub_elt_into" dst (Fp.sub c vi))
             && Fp.Vec.is_zero v i = Fp.is_zero vi
             && (Fp.Vec.mul_slot_elt v i c;
                 ok "mul_slot_elt" (Fp.Vec.get v i) (Fp.mul vi c))
             && (Fp.Vec.add_slot_elt v i c;
                 ok "add_slot_elt" (Fp.Vec.get v i) (Fp.add (Fp.mul vi c) c)))
      && List.for_all
           (fun (p, q) ->
             let v = fresh () in
             let vp = Fp.Vec.get v p and wq = Fp.mul c (Fp.Vec.get v q) in
             Fp.Vec.butterfly ~tmp v p q c;
             ok "butterfly +" (Fp.Vec.get v p) (Fp.add vp wq)
             && ok "butterfly -" (Fp.Vec.get v q) (Fp.sub vp wq))
           [ (0, len - 1); (len - 1, 0) ])

(* The slot kernels read and write unchecked after one index check per
   call, so every index argument of every one of them must be checked:
   an index outside [0, length) raises before any limb moves. *)
let test_vec_slot_bounds () =
  let len = 3 in
  let v = Fp.Vec.of_array (Array.init len (fun _ -> fresh_fp ())) in
  let saved = Fp.Vec.to_array v in
  let e = Fp.copy Fp.two and dst = Fp.buffer () and tmp = Fp.buffer () in
  List.iter
    (fun bad ->
      List.iter
        (fun (name, call) ->
          match call () with
          | () -> Alcotest.failf "%s at slot %d: no exception" name bad
          | exception Invalid_argument _ -> ())
        [
          ("is_zero", fun () -> ignore (Fp.Vec.is_zero v bad));
          ("add_slots dst", fun () -> Fp.Vec.add_slots v bad v 0 v 0);
          ("add_slots a", fun () -> Fp.Vec.add_slots v 0 v bad v 0);
          ("add_slots b", fun () -> Fp.Vec.add_slots v 0 v 0 v bad);
          ("sub_slots dst", fun () -> Fp.Vec.sub_slots v bad v 0 v 0);
          ("sub_slots a", fun () -> Fp.Vec.sub_slots v 0 v bad v 0);
          ("sub_slots b", fun () -> Fp.Vec.sub_slots v 0 v 0 v bad);
          ("mul_slot_elt", fun () -> Fp.Vec.mul_slot_elt v bad e);
          ("mul_into_elt a", fun () -> Fp.Vec.mul_into_elt ~dst v bad v 0);
          ("mul_into_elt b", fun () -> Fp.Vec.mul_into_elt ~dst v 0 v bad);
          ("mul_elt_into", fun () -> Fp.Vec.mul_elt_into ~dst v bad e);
          ("sub_elt_into", fun () -> Fp.Vec.sub_elt_into ~dst e v bad);
          ("add_slot_elt", fun () -> Fp.Vec.add_slot_elt v bad e);
          ("butterfly p", fun () -> Fp.Vec.butterfly ~tmp v bad 0 e);
          ("butterfly q", fun () -> Fp.Vec.butterfly ~tmp v 0 bad e);
        ])
    [ -1; len; max_int; min_int ];
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "slot %d untouched" i) x (Fp.Vec.get v i)) saved

(* --- FFT --- *)

let rand_poly n = Array.init n (fun _ -> fresh_fp ())

(* The oracle: Horner's rule on little-endian coefficients. *)
let horner p x = Array.fold_right (fun c acc -> Fp.add (Fp.mul acc x) c) p Fp.zero

(* [transform d] applied to a flat copy of [a], read back as an array. *)
let on_vec transform d a =
  let v = Fp.Vec.of_array a in
  transform d v;
  Fp.Vec.to_array v

(* Round trips run up to 2^15.  From 2^13 the butterfly stages and
   pointwise passes fan out over the pool; above it a domain's power
   tables span several chunks, each re-seeded with its own power: from
   2^14 the coset table, from 2^15 the twiddle tables too. *)
let roundtrip_sizes = [ 1; 2; 4; 8; 64; 256; 1 lsl 13; 1 lsl 14; 1 lsl 15 ]

let check_roundtrip forward inverse n =
  let d = Fft.domain n in
  let a = rand_poly (Fft.size d) in
  let b = on_vec inverse d (on_vec forward d a) in
  Array.iteri (fun i x -> Alcotest.check fp (Printf.sprintf "n=%d i=%d" n i) a.(i) x) b

(* Evaluations at [point d i] must match Horner on the coefficients. *)
let check_matches_eval transform ~point n =
  let d = Fft.domain n in
  let coeffs = rand_poly n in
  Array.iteri
    (fun i y ->
      Alcotest.check fp (Printf.sprintf "n=%d eval %d" n i) (horner coeffs (point d i)) y)
    (on_vec transform d coeffs)

let test_fft_roundtrip () = List.iter (check_roundtrip Fft.fft_vec Fft.ifft_vec) roundtrip_sizes

let test_fft_matches_eval () =
  List.iter (check_matches_eval Fft.fft_vec ~point:Fft.element) [ 2; 8; 64 ]

(* [coset_of_evals_vec] on the domain values of a random p of degree < n
   gives p(g omega^i).  Horner checks every point up to n = 64 and a
   spread of points above (it costs n multiplications a point). *)
let check_coset_of_evals n =
  let d = Fft.domain n in
  let n = Fft.size d in
  let coeffs = rand_poly n in
  let coset = on_vec Fft.coset_of_evals_vec d (on_vec Fft.fft_vec d coeffs) in
  let points = if n <= 64 then List.init n Fun.id else [ 0; 1; (n / 2) - 1; n / 2; n - 1 ] in
  List.iter
    (fun i ->
      let x = Fp.mul Fp.generator (Fft.element d i) in
      Alcotest.check fp (Printf.sprintf "n=%d coset %d" n i) (horner coeffs x) coset.(i))
    points

let test_coset_of_evals () =
  List.iter check_coset_of_evals (List.sort_uniq compare ([ 2; 8; 64 ] @ roundtrip_sizes))

(* Coset values back to domain values: the inverse NTT of p(g omega^i)
   gives the coefficients p_i g^i; dividing each by g^i and running the
   forward NTT gives p(omega^i). *)
let coset_to_evals d v =
  Fft.ifft_vec d v;
  let g_inv = Fp.inv Fp.generator in
  let scale = ref Fp.one in
  for i = 0 to Fft.size d - 1 do
    Fp.Vec.set v i (Fp.mul (Fp.Vec.get v i) !scale);
    scale := Fp.mul !scale g_inv
  done;
  Fft.fft_vec d v

let test_coset_roundtrip () =
  List.iter (check_roundtrip Fft.coset_of_evals_vec coset_to_evals) roundtrip_sizes

(* The coset query interpolates from the coset:
   sum_j p(g omega^j) q_j Z(g) = p(x) for p of degree < n, x off the coset. *)
let test_coset_query () =
  List.iter
    (fun n ->
      let d = Fft.domain n in
      let p = rand_poly n in
      let x = fresh_fp () in
      let q = Fp.Vec.to_array (Fft.coset_query d x) in
      let sum = ref Fp.zero in
      Array.iteri
        (fun j qj ->
          let y = horner p (Fp.mul Fp.generator (Fft.element d j)) in
          sum := Fp.add !sum (Fp.mul y qj))
        q;
      Alcotest.check fp (Printf.sprintf "n=%d p(x)" n) (horner p x)
        (Fp.mul !sum (Fft.vanishing_on_coset d));
      Alcotest.check_raises (Printf.sprintf "n=%d coset point" n) Division_by_zero (fun () ->
          ignore (Fft.coset_query d (Fp.mul Fp.generator (Fft.element d (n - 1))))))
    [ 1; 2; 8; 64 ]

let test_vanishing () =
  let d = Fft.domain 8 in
  for i = 0 to 7 do
    Alcotest.check fp "Z(w^i)=0" Fp.zero (Fft.vanishing_at d (Fft.element d i))
  done;
  let g = Fp.generator in
  Alcotest.check fp "Z on coset" (Fft.vanishing_on_coset d)
    (Fft.vanishing_at d (Fp.mul g Fp.one))

let test_lagrange_at () =
  let d = Fft.domain 8 in
  let x = fresh_fp () in
  let ls = Fp.Vec.to_array (Fft.lagrange_at d x) in
  (* Sum of all Lagrange basis polys is 1. *)
  let sum = Array.fold_left Fp.add Fp.zero ls in
  Alcotest.check fp "partition of unity" Fp.one sum;
  (* Against the product formula L_3(x) = prod_{j <> 3} (x - w^j) / (w^3 - w^j). *)
  let w = Fft.element d in
  let l3 = ref Fp.one in
  for j = 0 to 7 do
    if j <> 3 then l3 := Fp.mul !l3 (Fp.div (Fp.sub x (w j)) (Fp.sub (w 3) (w j)))
  done;
  Alcotest.check fp "L_3(x)" !l3 ls.(3)

let () =
  Alcotest.run "field"
    [
      ( "fp",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "negative of_int" `Quick test_negative_of_int;
          Alcotest.test_case "of_int min_int" `Quick test_of_int_extremes;
          Alcotest.test_case "pow_int min_int" `Quick test_pow_int_extremes;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "non-canonical bytes" `Quick test_bytes_noncanonical;
          Alcotest.test_case "root of unity" `Quick test_root_of_unity;
          Alcotest.test_case "2^28 root" `Quick test_max_two_adic_root;
          Alcotest.test_case "batch inversion" `Quick test_batch_inv;
          Alcotest.test_case "batch inversion zero" `Quick test_batch_inv_zero;
          Alcotest.test_case "inverse of zero" `Quick test_inverse_of_zero;
          prop_field_laws; prop_inverse; prop_sqr;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "saturated limbs" `Quick test_saturated_limbs;
          Alcotest.test_case "Nat conversions reduce and round-trip" `Quick test_nat_conversions;
          Alcotest.test_case "mul_into aliased = Nat reference" `Quick test_mul_into_alias;
          Alcotest.test_case "vec roundtrip" `Quick test_vec_roundtrip;
          Alcotest.test_case "vec slot ops" `Quick test_vec_slot_ops;
          Alcotest.test_case "vec slot index checked" `Quick test_vec_slot_bounds;
          prop_kernels_generic; prop_vec_slot_kernels; prop_pow_window; prop_bucket_dot;
        ] );
      ( "fft",
        [
          Alcotest.test_case "roundtrip" `Quick test_fft_roundtrip;
          Alcotest.test_case "matches Horner" `Quick test_fft_matches_eval;
          Alcotest.test_case "coset matches Horner" `Quick test_coset_of_evals;
          Alcotest.test_case "coset roundtrip" `Quick test_coset_roundtrip;
          Alcotest.test_case "coset query interpolates" `Quick test_coset_query;
          Alcotest.test_case "vanishing polynomial" `Quick test_vanishing;
          Alcotest.test_case "lagrange at point" `Quick test_lagrange_at;
        ] );
    ]
