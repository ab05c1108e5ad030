let limb_bits = Nat.limb_bits
let base = 1 lsl limb_bits
let mask = base - 1

type ctx = {
  m : Nat.t;
  m_limbs : int array; (* fixed width n *)
  n : int; (* limb count *)
  m0' : int; (* -m^{-1} mod 2^31 *)
  r2 : int array; (* (2^31)^(2n) mod m, Montgomery form of R *)
  one_m : int array; (* Montgomery form of 1 *)
}

type mont = int array (* fixed width ctx.n, value < m *)

(* Inverse of odd [v] modulo 2^31 by Newton iteration. *)
let inv_limb v =
  let x = ref v in
  for _ = 1 to 5 do
    x := (!x * (2 - (v * !x))) land mask
  done;
  !x

let fixed_width n a =
  let la = Array.length a in
  if la > n then invalid_arg "Modular: operand wider than modulus";
  let r = Array.make n 0 in
  Array.blit a 0 r 0 la;
  r

let create m =
  if Nat.is_even m then invalid_arg "Modular.create: even modulus";
  if Nat.compare m Nat.two <= 0 then invalid_arg "Modular.create: modulus < 3";
  let ml = Nat.limbs m in
  let n = Array.length ml in
  let m0' = (base - inv_limb ml.(0)) land mask in
  let r2_nat = Nat.rem (Nat.shift_left Nat.one (2 * n * limb_bits)) m in
  let r1_nat = Nat.rem (Nat.shift_left Nat.one (n * limb_bits)) m in
  {
    m;
    m_limbs = fixed_width n ml;
    n;
    m0';
    r2 = fixed_width n (Nat.limbs r2_nat);
    one_m = fixed_width n (Nat.limbs r1_nat);
  }

(* ------------------------------------------------------------------ *)
(* Kernels over raw limb regions: the one implementation of each
   Montgomery operation.

   Each kernel operates on an n-limb little-endian region of a flat
   [int array] starting at the given offset; regions must hold values
   < m (every kernel re-establishes that invariant).  The pure
   operations below run them on a fresh buffer at offset 0, and
   [mont_pow] on its flat table and two buffers, so an exponentiation
   allocates no limb array per multiplication.

   Aliasing rules:
   - [add_off]/[sub_off]/[neg_off] read index i before writing index i,
     so the destination region may coincide with either source region
     exactly (same array, same offset).  Partially-overlapping regions
     are invalid.
   - [mul_off] uses the destination region as the CIOS accumulator, so
     it must be disjoint from both source regions ([Invalid_argument]
     on a detected overlap).  The two source regions may coincide
     (squaring). *)

(* Compare little-endian limb regions, most-significant limb first.
   Top-level recursion, not a local [let rec]: a local closure capturing
   the array operands would be a per-call allocation in every kernel
   call (the non-flambda backend does not lift it). *)
let rec cmp_off_from a ao b bo i =
  if i < 0 then 0
  else begin
    let x = a.(ao + i) and y = b.(bo + i) in
    if x < y then -1 else if x > y then 1 else cmp_off_from a ao b bo (i - 1)
  end

let cmp_off a ao b bo n = cmp_off_from a ao b bo (n - 1)

(* r[ro..] <- r[ro..] - m; assumes the region holds a value >= m. *)
let sub_m_off ctx r ro =
  let borrow = ref 0 in
  for i = 0 to ctx.n - 1 do
    let d = r.(ro + i) - ctx.m_limbs.(i) - !borrow in
    if d < 0 then begin
      r.(ro + i) <- d + base;
      borrow := 1
    end
    else begin
      r.(ro + i) <- d;
      borrow := 0
    end
  done

let add_off ctx r ro a ao b bo =
  let n = ctx.n in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.(ao + i) + b.(bo + i) + !carry in
    r.(ro + i) <- s land mask;
    carry := s lsr limb_bits
  done;
  if !carry <> 0 || cmp_off r ro ctx.m_limbs 0 n >= 0 then sub_m_off ctx r ro

let sub_off ctx r ro a ao b bo =
  let n = ctx.n in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = a.(ao + i) - b.(bo + i) - !borrow in
    if d < 0 then begin
      r.(ro + i) <- d + base;
      borrow := 1
    end
    else begin
      r.(ro + i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then begin
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let s = r.(ro + i) + ctx.m_limbs.(i) + !carry in
      r.(ro + i) <- s land mask;
      carry := s lsr limb_bits
    done
  end

let rec is_zero_off a ao n i = i >= n || (a.(ao + i) = 0 && is_zero_off a ao n (i + 1))

let neg_off ctx r ro a ao =
  if is_zero_off a ao ctx.n 0 then Array.fill r ro ctx.n 0
  else begin
    let borrow = ref 0 in
    for i = 0 to ctx.n - 1 do
      let d = ctx.m_limbs.(i) - a.(ao + i) - !borrow in
      if d < 0 then begin
        r.(ro + i) <- d + base;
        borrow := 1
      end
      else begin
        r.(ro + i) <- d;
        borrow := 0
      end
    done
  end

let overlaps r ro a ao n = r == a && abs (ro - ao) < n

(* CIOS Montgomery multiplication: r <- a*b*R^{-1} mod m, with the
   destination region as the accumulator.  The two limbs that overflow
   the n-wide accumulator live in scalar refs, so no (n+2)-wide
   temporary is allocated per multiplication.
   The destination must be disjoint from both sources: the accumulator
   is written at index j-1 while source limbs at indices >= j are still
   pending reads. *)
let mul_off ctx r ro a ao b bo =
  let n = ctx.n in
  if overlaps r ro a ao n || overlaps r ro b bo n then
    invalid_arg "Modular.mul_off: destination overlaps a source";
  Array.fill r ro n 0;
  let t_n = ref 0 in
  let t_n1 = ref 0 in
  for i = 0 to n - 1 do
    let ai = a.(ao + i) in
    let c = ref 0 in
    for j = 0 to n - 1 do
      let acc = r.(ro + j) + (ai * b.(bo + j)) + !c in
      r.(ro + j) <- acc land mask;
      c := acc lsr limb_bits
    done;
    let acc = !t_n + !c in
    t_n := acc land mask;
    t_n1 := !t_n1 + (acc lsr limb_bits);
    let mi = (r.(ro) * ctx.m0') land mask in
    let c = ref ((r.(ro) + (mi * ctx.m_limbs.(0))) lsr limb_bits) in
    for j = 1 to n - 1 do
      let acc = r.(ro + j) + (mi * ctx.m_limbs.(j)) + !c in
      r.(ro + j - 1) <- acc land mask;
      c := acc lsr limb_bits
    done;
    let acc = !t_n + !c in
    r.(ro + n - 1) <- acc land mask;
    t_n := !t_n1 + (acc lsr limb_bits);
    t_n1 := 0
  done;
  if !t_n <> 0 || cmp_off r ro ctx.m_limbs 0 n >= 0 then sub_m_off ctx r ro

(* ------------------------------------------------------------------ *)
(* Pure operations: a fresh buffer plus the kernel at offset 0.  Only a
   fresh buffer is ever a kernel destination, never a [mont] a caller
   holds. *)

let mont_buffer ctx = Array.make ctx.n 0
let mont_one ctx = Array.copy ctx.one_m

let mont_add ctx a b =
  let r = mont_buffer ctx in
  add_off ctx r 0 a 0 b 0;
  r

let mont_sub ctx a b =
  let r = mont_buffer ctx in
  sub_off ctx r 0 a 0 b 0;
  r

let mont_neg ctx a =
  let r = mont_buffer ctx in
  neg_off ctx r 0 a 0;
  r

let mont_mul ctx a b =
  let r = mont_buffer ctx in
  mul_off ctx r 0 a 0 b 0;
  r

let mont_sqr ctx a = mont_mul ctx a a
let mont_equal a b = cmp_off a 0 b 0 (Array.length a) = 0

let to_mont ctx x =
  let x = if Nat.compare x ctx.m >= 0 then Nat.rem x ctx.m else x in
  mont_mul ctx (fixed_width ctx.n (Nat.limbs x)) ctx.r2

let of_mont ctx a = Nat.of_limbs (mont_mul ctx a (fixed_width ctx.n [| 1 |]))

(* 4-bit sliding-window exponentiation.  A table of odd powers b^1, b^3,
   ..., b^15 turns runs of exponent bits into one table multiplication
   each, cutting the expected multiplication count from ~nb/2
   (square-and-multiply) to ~nb/5 for the same square count; exponents of
   at most 4 bits use window width 1, which is square-and-multiply.  The
   table is one flat array of n-limb regions (odd powers in regions 0-7,
   b^2 in region 8), filled only as far as the windows met so far need,
   so a sparse exponent such as 65537 builds none of it.  The accumulator
   ping-pongs between two buffers through [mul_off], so a call allocates
   the same three arrays whatever the exponent.  Field arithmetic is exact
   and the representation canonical, so the result limbs are identical to
   the binary method's. *)
let mont_pow ctx b e =
  let n = ctx.n in
  let nb = Nat.num_bits e in
  if nb = 0 then mont_one ctx
  else begin
    let w = if nb > 4 then 4 else 1 in
    let tbl = Array.make (if w > 1 then 9 * n else n) 0 in
    Array.blit b 0 tbl 0 n;
    let built = ref 1 in
    let acc = ref (Array.make n 0) and spare = ref (Array.make n 0) in
    let started = ref false in
    let i = ref (nb - 1) in
    while !i >= 0 do
      if not (Nat.testbit e !i) then begin
        if !started then begin
          mul_off ctx !spare 0 !acc 0 !acc 0;
          let t = !acc in
          acc := !spare;
          spare := t
        end;
        decr i
      end
      else begin
        (* widest window [j, i] of <= w bits whose low bit is set *)
        let j = ref (max 0 (!i - w + 1)) in
        while not (Nat.testbit e !j) do
          incr j
        done;
        let v = ref 0 in
        for k = !i downto !j do
          v := (!v lsl 1) lor if Nat.testbit e k then 1 else 0
        done;
        let k = (!v - 1) / 2 in
        if k >= !built && !built = 1 then mul_off ctx tbl (8 * n) b 0 b 0;
        while k >= !built do
          mul_off ctx tbl (!built * n) tbl ((!built - 1) * n) tbl (8 * n);
          incr built
        done;
        if !started then begin
          for _ = !j to !i do
            mul_off ctx !spare 0 !acc 0 !acc 0;
            let t = !acc in
            acc := !spare;
            spare := t
          done;
          mul_off ctx !spare 0 !acc 0 tbl (k * n);
          let t = !acc in
          acc := !spare;
          spare := t
        end
        else begin
          Array.blit tbl (k * n) !acc 0 n;
          started := true
        end;
        i := !j - 1
      end
    done;
    !acc
  end

let sub ctx a b = of_mont ctx (mont_sub ctx (to_mont ctx a) (to_mont ctx b))
let mul ctx a b = of_mont ctx (mont_mul ctx (to_mont ctx a) (to_mont ctx b))
let pow ctx b e = of_mont ctx (mont_pow ctx (to_mont ctx b) e)
