(* Little-endian 31-bit limbs, canonical (no trailing zero limbs). *)

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero n = Array.length n = 0

let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_limbs a = trim (Array.copy a)
let limbs n = Array.copy n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else begin
    let rec count k acc = if k = 0 then acc else count (k lsr limb_bits) (acc + 1) in
    let len = count n 0 in
    let a = Array.make len 0 in
    let rec fill i k =
      if k <> 0 then begin
        a.(i) <- k land mask;
        fill (i + 1) (k lsr limb_bits)
      end
    in
    fill 0 n;
    a
  end

let to_int_opt n =
  let len = Array.length n in
  if len = 0 then Some 0
  else if len * limb_bits <= 62 then begin
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl limb_bits) lor n.(i)
    done;
    Some !v
  end
  else begin
    (* May still fit: check top bits. *)
    let bits_used =
      let top = n.(len - 1) in
      let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
      (len - 1) * limb_bits + width 0 top
    in
    if bits_used <= 62 then begin
      let v = ref 0 in
      for i = len - 1 downto 0 do
        v := (!v lsl limb_bits) lor n.(i)
      done;
      Some !v
    end
    else None
  end

let num_bits n =
  let len = Array.length n in
  if len = 0 then 0
  else begin
    let rec width w v = if v = 0 then w else width (w + 1) (v lsr 1) in
    (len - 1) * limb_bits + width 0 n.(len - 1)
  end

let testbit n i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length n && (n.(limb) lsr off) land 1 = 1

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0
let is_even n = Array.length n = 0 || n.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  trim r

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  trim r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          (* ai*bj <= (2^31-1)^2 and the two additions keep the total
             strictly below 2^63, so native ints suffice. *)
          let acc = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- acc land mask;
          carry := acc lsr limb_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let acc = r.(!k) + !carry in
          r.(!k) <- acc land mask;
          carry := acc lsr limb_bits;
          incr k
        done
      end
    done;
    trim r
  end

let add_small a d =
  if d < 0 || d >= base then invalid_arg "Nat.add_small";
  add a (of_int d)

let mul_small a d =
  if d < 0 || d >= base then invalid_arg "Nat.mul_small";
  if d = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let acc = (a.(i) * d) + !carry in
      r.(i) <- acc land mask;
      carry := acc lsr limb_bits
    done;
    r.(la) <- !carry;
    trim r
  end

let divmod_small a d =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_small";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (trim q, !rem)

let shift_left a k =
  if k < 0 then invalid_arg "Nat.shift_left";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    if bit_shift = 0 then
      for i = 0 to la - 1 do
        r.(i + limb_shift) <- a.(i)
      done
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bit_shift) lor !carry in
        r.(i + limb_shift) <- v land mask;
        carry := v lsr limb_bits
      done;
      r.(la + limb_shift) <- !carry
    end;
    trim r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Nat.shift_right";
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let lr = la - limb_shift in
      let r = Array.make lr 0 in
      if bit_shift = 0 then
        for i = 0 to lr - 1 do
          r.(i) <- a.(i + limb_shift)
        done
      else
        for i = 0 to lr - 1 do
          let lo = a.(i + limb_shift) lsr bit_shift in
          let hi =
            if i + limb_shift + 1 < la then
              (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done;
      trim r
    end
  end

let rem_small a d =
  if d <= 0 || d >= base then invalid_arg "Nat.rem_small";
  let r = ref 0 in
  for i = Array.length a - 1 downto 0 do
    r := ((!r lsl limb_bits) lor a.(i)) mod d
  done;
  !r

(* Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) in base 2^31.  After
   normalisation the divisor's top limb is at least 2^30, so each trial
   quotient [qhat] is at most 2 too large and every intermediate product
   fits in a 63-bit native int: a two-limb numerator is below 2^62, and so
   is [qhat * v.(lb - 2)], which is only formed once [qhat < base]. *)
let divmod_knuth a b =
  let la = Array.length a and lb = Array.length b in
  let s =
    let rec lead k top = if top land (base lsr 1) <> 0 then k else lead (k + 1) (top lsl 1) in
    lead 0 b.(lb - 1)
  in
  (* u <- a * 2^s with one extra top limb; v <- b * 2^s. *)
  let u = Array.make (la + 1) 0 and v = Array.make lb 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let x = (a.(i) lsl s) lor !carry in
    u.(i) <- x land mask;
    carry := x lsr limb_bits
  done;
  u.(la) <- !carry;
  carry := 0;
  for i = 0 to lb - 1 do
    let x = (b.(i) lsl s) lor !carry in
    v.(i) <- x land mask;
    carry := x lsr limb_bits
  done;
  let vtop = v.(lb - 1) and vnext = v.(lb - 2) in
  let q = Array.make (la - lb + 1) 0 in
  for j = la - lb downto 0 do
    let num = (u.(j + lb) lsl limb_bits) lor u.(j + lb - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    while
      !rhat < base
      && (!qhat >= base || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + lb - 2))
    do
      decr qhat;
      rhat := !rhat + vtop
    done;
    (* u[j .. j+lb] -= qhat * v *)
    let mul_carry = ref 0 and borrow = ref 0 in
    for i = 0 to lb - 1 do
      let p = (!qhat * v.(i)) + !mul_carry in
      mul_carry := p lsr limb_bits;
      let d = u.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let top = u.(j + lb) - !mul_carry - !borrow in
    if top >= 0 then u.(j + lb) <- top
    else begin
      (* qhat was one too large: add v back; the carry out of the top
         limb cancels the borrow. *)
      decr qhat;
      let c = ref 0 in
      for i = 0 to lb - 1 do
        let x = u.(i + j) + v.(i) + !c in
        u.(i + j) <- x land mask;
        c := x lsr limb_bits
      done;
      u.(j + lb) <- (top + base + !c) land mask
    end;
    q.(j) <- !qhat
  done;
  (* remainder = u[0 .. lb-1] / 2^s *)
  let r = Array.make lb 0 in
  for i = 0 to lb - 1 do
    let hi = if i + 1 < lb then (u.(i + 1) lsl (limb_bits - s)) land mask else 0 in
    r.(i) <- (u.(i) lsr s) lor hi
  done;
  (trim q, trim r)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Signed extended Euclid, for any modulus (RSA keygen needs even ones).
   Signed values are (negative flag, magnitude). *)
let inverse a m =
  if compare m two < 0 then invalid_arg "Nat.inverse: modulus < 2";
  let s_sub (na, a) (nb, b) =
    (* a - b with signs *)
    match (na, nb) with
    | false, true -> (false, add a b)
    | true, false -> (true, add a b)
    | false, false -> if compare a b >= 0 then (false, sub a b) else (true, sub b a)
    | true, true -> if compare b a >= 0 then (false, sub b a) else (true, sub a b)
  in
  let s_mul_nat (na, a) q = (na, mul a q) in
  let a = rem a m in
  if is_zero a then raise Division_by_zero;
  let r0 = ref m and r1 = ref a in
  let t0 = ref (false, zero) and t1 = ref (false, one) in
  while not (is_zero !r1) do
    let q, r = divmod !r0 !r1 in
    r0 := !r1;
    r1 := r;
    let t = s_sub !t0 (s_mul_nat !t1 q) in
    t0 := !t1;
    t1 := t
  done;
  if not (equal !r0 one) then raise Division_by_zero;
  let neg, mag = !t0 in
  let mag = rem mag m in
  if neg && not (is_zero mag) then sub m mag else mag

let pow b e =
  if e < 0 then invalid_arg "Nat.pow";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

(* One pass from the least significant byte, packing bytes into 31-bit
   limbs through a bit accumulator. *)
let of_bytes_be s =
  let n = Bytes.length s in
  let r = Array.make (((8 * n) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nacc = ref 0 and k = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code (Bytes.get s i) lsl !nacc);
    nacc := !nacc + 8;
    if !nacc >= limb_bits then begin
      r.(!k) <- !acc land mask;
      acc := !acc lsr limb_bits;
      nacc := !nacc - limb_bits;
      incr k
    end
  done;
  if !nacc > 0 then r.(!k) <- !acc;
  trim r

let to_bytes_be ?len n =
  let nbytes = (num_bits n + 7) / 8 in
  let out_len =
    match len with
    | None -> nbytes
    | Some l ->
      if l < nbytes then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make out_len '\000' in
  for i = 0 to nbytes - 1 do
    (* byte i from the end *)
    let bit = i * 8 in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    let v =
      let lo = if limb < Array.length n then n.(limb) lsr off else 0 in
      let hi =
        if off > limb_bits - 8 && limb + 1 < Array.length n then
          n.(limb + 1) lsl (limb_bits - off)
        else 0
      in
      (lo lor hi) land 0xff
    in
    Bytes.set b (out_len - 1 - i) (Char.chr v)
  done;
  b

let of_hex s =
  let r = ref zero in
  String.iter
    (fun c ->
      let v =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | '_' | ' ' -> -1
        | _ -> invalid_arg "Nat.of_hex: bad digit"
      in
      if v >= 0 then r := add_small (shift_left !r 4) v)
    s;
  !r

let of_decimal_string s =
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add_small (mul_small !r 10) (Char.code c - Char.code '0')
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_decimal_string: bad digit")
    s;
  !r

let to_decimal_string n =
  if is_zero n then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go n =
      if not (is_zero n) then begin
        let q, r = divmod_small n 10 in
        go q;
        Buffer.add_char buf (Char.chr (Char.code '0' + r))
      end
    in
    go n;
    Buffer.contents buf
  end

let pp fmt n = Format.pp_print_string fmt (to_decimal_string n)
