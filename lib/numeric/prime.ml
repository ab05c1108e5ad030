let small_primes =
  (* primes below 1000, for cheap trial division before Miller-Rabin *)
  let sieve = Array.make 1000 true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to 31 do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j < 1000 do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let acc = ref [] in
  for i = 999 downto 2 do
    if sieve.(i) then acc := i :: !acc
  done;
  Array.of_list !acc

let random_bits ~random_bytes k =
  if k <= 0 then Nat.zero
  else begin
    let nbytes = (k + 7) / 8 in
    let b = random_bytes nbytes in
    let extra = (nbytes * 8) - k in
    if extra > 0 then begin
      let top = Char.code (Bytes.get b 0) land (0xff lsr extra) in
      Bytes.set b 0 (Char.chr top)
    end;
    Nat.of_bytes_be b
  end

let random_below ~random_bytes bound =
  if Nat.is_zero bound then invalid_arg "Prime.random_below: zero bound";
  let k = Nat.num_bits bound in
  let rec go () =
    let x = random_bits ~random_bytes k in
    if Nat.compare x bound < 0 then x else go ()
  in
  go ()

let miller_rabin ~rounds ~random_bytes n =
  (* n odd, > small primes *)
  let n_minus_1 = Nat.sub n Nat.one in
  let rec split d s = if Nat.is_even d then split (Nat.shift_right d 1) (s + 1) else (d, s) in
  let d, s = split n_minus_1 0 in
  let ctx = Modular.create n in
  let one = Modular.mont_one ctx in
  let minus_one = Modular.mont_neg ctx one in
  let witness a =
    (* true iff a witnesses compositeness *)
    let x = ref (Modular.mont_pow ctx (Modular.to_mont ctx a) d) in
    if Modular.mont_equal !x one || Modular.mont_equal !x minus_one then false
    else begin
      let rec go r =
        if r >= s - 1 then true
        else begin
          x := Modular.mont_sqr ctx !x;
          if Modular.mont_equal !x minus_one then false else go (r + 1)
        end
      in
      go 0
    end
  in
  let n_minus_3 = Nat.sub n (Nat.of_int 3) in
  (* All witness candidates are drawn upfront on the calling domain, so the
     RNG stream consumed is the same at every ZEBRA_DOMAINS setting.  The
     shared stop flag inside [exists] preserves the sequential early-exit:
     once some round finds a witness, remaining rounds are abandoned. *)
  let candidates =
    Array.init rounds (fun _ -> Nat.add (random_below ~random_bytes n_minus_3) Nat.two)
  in
  not (Zebra_parallel.Parallel.exists ~min_chunk:2 rounds (fun i -> witness candidates.(i)))

let is_prime ?(rounds = 32) ~random_bytes n =
  match Nat.to_int_opt n with
  | Some v when v < 1000 * 1000 ->
    if v < 2 then false
    else begin
      let rec go i =
        if i >= Array.length small_primes then true
        else begin
          let p = small_primes.(i) in
          if p * p > v then true else if v mod p = 0 then v = p else go (i + 1)
        end
      in
      go 0
    end
  | _ ->
    if Nat.is_even n then false
    else begin
      let divisible =
        Array.exists
          (fun p -> p > 2 && Nat.rem_small n p = 0)
          small_primes
      in
      (not divisible) && miller_rabin ~rounds ~random_bytes n
    end

let generate ~bits ~random_bytes =
  if bits < 8 then invalid_arg "Prime.generate: need at least 8 bits";
  let rec go () =
    let c = random_bits ~random_bytes (bits - 2) in
    (* Force the top two bits, so the product of two such primes has
       exactly twice their width, and oddness. *)
    let c = Nat.add (Nat.shift_left (Nat.of_int 3) (bits - 2)) c in
    let c = if Nat.is_even c then Nat.add c Nat.one else c in
    if is_prime ~random_bytes c then c else go ()
  in
  go ()
