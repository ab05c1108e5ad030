(* Unit and property tests for the arbitrary-precision substrate. *)

open Zebra_numeric

let rng = Zebra_rng.Chacha20.create ~seed:"test_numeric"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

let nat = Alcotest.testable Nat.pp Nat.equal

(* Random Nat of up to [bits] bits for qcheck generators; derives randomness
   from the qcheck state so shrinking stays meaningful. *)
let arb_nat ?(bits = 256) () =
  let max_bytes = (bits + 7) / 8 in
  QCheck2.Gen.map
    (fun ints -> Nat.of_bytes_be (Bytes.of_string (String.concat "" (List.map (String.make 1) (List.map Char.chr ints)))))
    QCheck2.Gen.(list_size (int_range 0 max_bytes) (int_bound 255))

let qtest name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* --- Nat unit tests --- *)

let test_of_int_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check (option int)) "roundtrip" (Some v) (Nat.to_int_opt (Nat.of_int v)))
    [ 0; 1; 2; 42; 0x7fffffff; 0x80000000; max_int ]

let test_decimal_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "decimal" s (Nat.to_decimal_string (Nat.of_decimal_string s)))
    [ "0"; "1"; "4294967296"; "340282366920938463463374607431768211456";
      "21888242871839275222246405745257275088548364400416034343698204186575808495617" ]

let test_hex_roundtrip () =
  let x = Nat.of_hex "deadbeef00112233445566778899aabbccddeeff" in
  Alcotest.(check bytes) "hex"
    (Bytes.of_string "\xde\xad\xbe\xef\x00\x11\x22\x33\x44\x55\x66\x77\x88\x99\xaa\xbb\xcc\xdd\xee\xff")
    (Nat.to_bytes_be x)

let test_bytes_roundtrip () =
  let b = Bytes.of_string "\x01\x02\x03\xff\x00\x10" in
  let x = Nat.of_bytes_be b in
  Alcotest.(check bytes) "bytes" b (Nat.to_bytes_be ~len:6 x)

let test_sub_underflow () =
  Alcotest.check_raises "sub underflow" (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (Nat.sub Nat.one Nat.two))

let test_divmod_small_cases () =
  let x = Nat.of_decimal_string "123456789123456789" in
  let q, r = Nat.divmod x (Nat.of_int 1000) in
  Alcotest.(check string) "q" "123456789123456" (Nat.to_decimal_string q);
  Alcotest.(check string) "r" "789" (Nat.to_decimal_string r)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_pow () =
  Alcotest.(check string) "2^100" "1267650600228229401496703205376"
    (Nat.to_decimal_string (Nat.pow Nat.two 100))

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (Nat.num_bits Nat.zero);
  Alcotest.(check int) "bits 1" 1 (Nat.num_bits Nat.one);
  Alcotest.(check int) "bits 2^100" 101 (Nat.num_bits (Nat.pow Nat.two 100))

let test_shift_inverse () =
  let x = Nat.of_hex "123456789abcdef0123456789abcdef" in
  Alcotest.check nat "shift" x (Nat.shift_right (Nat.shift_left x 77) 77)

(* --- Nat properties --- *)

let pair g = QCheck2.Gen.pair g g
let triple g = QCheck2.Gen.triple g g g

let prop_add_comm =
  qtest "add commutative" (pair (arb_nat ())) (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_add_assoc =
  qtest "add associative" (triple (arb_nat ())) (fun (a, b, c) ->
      Nat.equal (Nat.add (Nat.add a b) c) (Nat.add a (Nat.add b c)))

let prop_mul_comm =
  qtest "mul commutative" (pair (arb_nat ())) (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_assoc =
  qtest "mul associative" (triple (arb_nat ~bits:128 ())) (fun (a, b, c) ->
      Nat.equal (Nat.mul (Nat.mul a b) c) (Nat.mul a (Nat.mul b c)))

let prop_distrib =
  qtest "mul distributes over add" (triple (arb_nat ~bits:128 ())) (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_add_sub =
  qtest "sub inverts add" (pair (arb_nat ())) (fun (a, b) ->
      Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_divmod =
  qtest "divmod identity" (pair (arb_nat ~bits:512 ())) (fun (a, b) ->
      if Nat.is_zero b then true
      else begin
        let q, r = Nat.divmod a b in
        Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0
      end)

let prop_bytes_roundtrip =
  qtest "bytes roundtrip" (arb_nat ~bits:520 ()) (fun a ->
      Nat.equal a (Nat.of_bytes_be (Nat.to_bytes_be a)))

let prop_decimal_roundtrip =
  qtest "decimal roundtrip" (arb_nat ~bits:300 ()) (fun a ->
      Nat.equal a (Nat.of_decimal_string (Nat.to_decimal_string a)))

let prop_shift =
  qtest "shift_left is mul by 2^k"
    (QCheck2.Gen.pair (arb_nat ()) (QCheck2.Gen.int_bound 100))
    (fun (a, k) -> Nat.equal (Nat.shift_left a k) (Nat.mul a (Nat.pow Nat.two k)))

let prop_gcd =
  qtest "gcd divides both" (pair (arb_nat ~bits:128 ())) (fun (a, b) ->
      if Nat.is_zero a && Nat.is_zero b then true
      else begin
        let g = Nat.gcd a b in
        (not (Nat.is_zero g))
        && Nat.is_zero (Nat.rem a g)
        && Nat.is_zero (Nat.rem b g)
      end)

(* --- Division (Knuth's Algorithm D) --- *)

(* Bitwise restoring division: the reference [Nat.divmod] is checked
   against.  Slow, but it shares no code with the limb-wise algorithm. *)
let ref_divmod a b =
  let q = ref Nat.zero and r = ref Nat.zero in
  for i = Nat.num_bits a - 1 downto 0 do
    r := Nat.shift_left !r 1;
    if Nat.testbit a i then r := Nat.add !r Nat.one;
    q := Nat.shift_left !q 1;
    if Nat.compare !r b >= 0 then begin
      r := Nat.sub !r b;
      q := Nat.add !q Nat.one
    end
  done;
  (!q, !r)

let lm = (1 lsl 31) - 1 (* the largest limb *)
let lh = 1 lsl 30 (* the smallest normalised top limb *)

(* Random operands reach the trial-quotient correction and the add-back
   step about twice in 2^31 quotient limbs.  Each case below reaches the
   named steps (checked with a temporary counter when the cases were
   written): a divisor whose top limb is 2^30 or 2^31-1, and a dividend
   with runs of 2^31-1 limbs. *)
let division_cases =
  [
    ("top 2^30, one correction", [| lm; lm; lm |], [| lh + 1; lh |]);
    ("top 2^30, two corrections", [| lm; lm; lm |], [| lm - 1; lh |]);
    ("top 2^30, qhat >= base", [| 0; 0; lh |], [| lm - 1; lh |]);
    ("top 2^30, add-back", [| lm - 1; lm - 1; lh + 1; lm |], [| lm; lh + 1; lh |]);
    ("top 2^30, correction and add-back", [| lm; lm; lh + 1; lm |], [| lm; lh + 1; lh |]);
    ("top 2^31-1, two corrections", [| lm; 2; lm |], [| lm; lm |]);
    ("top 2^31-1, add-back", [| 1; lh; lm; lh |], [| lh - 1; lm; lm |]);
    ("top 2^31-1, corrections and add-back", [| 1; lh + 1; lm; lm |], [| lm - 1; lm; lm |]);
  ]

let test_division_edge_cases () =
  List.iter
    (fun (name, a, b) ->
      let a = Nat.of_limbs a and b = Nat.of_limbs b in
      let q, r = Nat.divmod a b in
      let q', r' = ref_divmod a b in
      Alcotest.check nat (name ^ ": quotient") q' q;
      Alcotest.check nat (name ^ ": remainder") r' r)
    division_cases

(* Limbs drawn half the time from the values that drive Algorithm D's
   rare steps, half the time uniformly. *)
let gen_limbs max_len =
  let open QCheck2.Gen in
  let special = oneofl [ 0; 1; 2; lh - 1; lh; lh + 1; lm - 1; lm ] in
  let limb = frequency [ (1, special); (1, int_bound lm) ] in
  map (fun l -> Nat.of_limbs (Array.of_list l)) (list_size (int_range 0 max_len) limb)

let prop_divmod_reference =
  qtest "divmod matches bitwise reference (edge-biased limbs)" ~count:1000
    (pair (gen_limbs 6))
    (fun (a, b) ->
      if Nat.is_zero b then true
      else begin
        let q, r = Nat.divmod a b and q', r' = ref_divmod a b in
        Nat.equal q q' && Nat.equal r r'
      end)

let prop_rem_small =
  qtest "rem_small = snd divmod_small"
    (QCheck2.Gen.pair (gen_limbs 8)
       QCheck2.Gen.(frequency [ (1, oneofl [ 1; 2; 3; 997; lh; lm ]); (1, int_range 1 lm) ]))
    (fun (a, d) -> Nat.rem_small a d = snd (Nat.divmod_small a d))

(* Every length from 0 to 70 bytes, with 0, 1 and 3 leading zero bytes,
   against [to_bytes_be] and a byte-at-a-time reference decode. *)
let test_of_bytes_be_lengths () =
  let ref_of_bytes b =
    Bytes.fold_left (fun acc c -> Nat.add (Nat.shift_left acc 8) (Nat.of_int (Char.code c))) Nat.zero b
  in
  let rng = Zebra_rng.Chacha20.create ~seed:"of_bytes_be" in
  for len = 0 to 70 do
    List.iter
      (fun zeros ->
        let b = Zebra_rng.Chacha20.bytes rng len in
        Bytes.fill b 0 (min zeros len) '\000';
        let x = Nat.of_bytes_be b in
        let name = Printf.sprintf "len %d, %d leading zeros" len zeros in
        Alcotest.check nat name (ref_of_bytes b) x;
        Alcotest.(check bytes) (name ^ ": roundtrip") b (Nat.to_bytes_be ~len x);
        Alcotest.(check bool) (name ^ ": canonical") true
          (Nat.equal x (Nat.of_limbs (Nat.limbs x))
          && Array.length (Nat.limbs x) = (Nat.num_bits x + 30) / 31))
      [ 0; 1; 3 ]
  done

(* --- Modular --- *)

let p256 =
  (* the BN254 scalar prime, also used by the field layer *)
  Nat.of_decimal_string
    "21888242871839275222246405745257275088548364400416034343698204186575808495617"

let test_mont_roundtrip () =
  let ctx = Modular.create p256 in
  let x = Nat.of_decimal_string "123456789123456789123456789" in
  Alcotest.check nat "mont roundtrip" x (Modular.of_mont ctx (Modular.to_mont ctx x))

let test_mod_mul_small () =
  let ctx = Modular.create (Nat.of_int 97) in
  Alcotest.check nat "13*17 mod 97" (Nat.of_int (13 * 17 mod 97))
    (Modular.mul ctx (Nat.of_int 13) (Nat.of_int 17))

let test_mod_pow_fermat () =
  let ctx = Modular.create p256 in
  let a = Nat.of_decimal_string "987654321987654321" in
  (* a^(p-1) = 1 mod p *)
  Alcotest.check nat "fermat" Nat.one (Modular.pow ctx a (Nat.sub p256 Nat.one))

let test_mod_inverse () =
  let ctx = Modular.create p256 in
  let a = Nat.of_decimal_string "31415926535897932384626433832795" in
  let ai = Nat.inverse a p256 in
  Alcotest.check nat "a * a^-1 = 1" Nat.one (Modular.mul ctx a ai)

let test_inverse_even_modulus () =
  (* 3^-1 mod 40 = 27 (RSA keygen path: inverse modulo even lambda) *)
  Alcotest.check nat "3^-1 mod 40" (Nat.of_int 27)
    (Nat.inverse (Nat.of_int 3) (Nat.of_int 40))

let test_inverse_not_coprime () =
  Alcotest.check_raises "non coprime" Division_by_zero (fun () ->
      ignore (Nat.inverse (Nat.of_int 6) (Nat.of_int 9)))

let prop_mod_mul_matches_nat =
  qtest "mod mul matches Nat" (pair (arb_nat ~bits:300 ())) (fun (a, b) ->
      let ctx = Modular.create p256 in
      Nat.equal (Modular.mul ctx a b) (Nat.rem (Nat.mul a b) p256))

let prop_mod_add_matches_nat =
  qtest "mod add matches Nat" (pair (arb_nat ~bits:300 ())) (fun (a, b) ->
      let ctx = Modular.create p256 in
      let sum = Modular.mont_add ctx (Modular.to_mont ctx a) (Modular.to_mont ctx b) in
      Nat.equal (Modular.of_mont ctx sum) (Nat.rem (Nat.add a b) p256))

let prop_mod_inv =
  qtest "inverse property" (arb_nat ~bits:250 ()) (fun a ->
      let ctx = Modular.create p256 in
      let a = Nat.rem a p256 in
      if Nat.is_zero a then true
      else Nat.equal Nat.one (Modular.mul ctx a (Nat.inverse a p256)))

let prop_mod_pow_agree_small =
  qtest "pow matches repeated mul" (QCheck2.Gen.pair (arb_nat ~bits:64 ()) (QCheck2.Gen.int_bound 30))
    (fun (a, e) ->
      let m = Nat.of_int 1000003 in
      let ctx = Modular.create m in
      let expected = Nat.rem (Nat.pow a e) m in
      Nat.equal expected (Modular.pow ctx a (Nat.of_int e)))

(* The 4-bit sliding-window [mont_pow] must agree with a plain binary
   ladder for wide exponents too (the RSA/Miller-Rabin regime), over
   both a large and a tiny odd modulus. *)
let prop_mod_pow_wide =
  qtest "sliding-window pow matches binary ladder" ~count:30
    (QCheck2.Gen.pair (arb_nat ~bits:250 ()) (arb_nat ~bits:250 ()))
    (fun (a, e) ->
      let ladder ctx m b e =
        let b = Nat.rem b m in
        let nb = Nat.num_bits e in
        let acc = ref Nat.one in
        for i = nb - 1 downto 0 do
          acc := Modular.mul ctx !acc !acc;
          if Nat.testbit e i then acc := Modular.mul ctx !acc b
        done;
        !acc
      in
      let ctx = Modular.create p256 in
      let tiny = Nat.of_int 3 in
      let ctx3 = Modular.create tiny in
      Nat.equal (Modular.pow ctx a e) (ladder ctx p256 a e)
      && Nat.equal (Modular.pow ctx3 a e) (ladder ctx3 tiny a e))

(* Residues mod [m], biased to the edges 0, 1, m-1 and m-2. *)
let arb_residue m =
  QCheck2.Gen.frequency
    [
      (6, QCheck2.Gen.map (fun x -> Nat.rem x m) (arb_nat ~bits:(Nat.num_bits m) ()));
      (1, QCheck2.Gen.return Nat.zero);
      (1, QCheck2.Gen.return Nat.one);
      (1, QCheck2.Gen.return (Nat.sub m Nat.one));
      (1, QCheck2.Gen.return (Nat.sub m Nat.two));
    ]

(* The Montgomery operations against plain Nat arithmetic mod [m].  Each
   is a fresh value plus its offset kernel, so this runs every kernel:
   add, subtract, negate, multiply and square.  [of_mont] would map an
   unreduced result (say m for 0) to the right value, so [mont_equal]
   against the value's own [to_mont] checks that the result is reduced
   too. *)
let prop_off_kernels name m =
  qtest ("offset kernels = Nat reference, " ^ name) ~count:100 (pair (arb_residue m))
    (fun (a, b) ->
      let ctx = Modular.create m in
      let ma = Modular.to_mont ctx a and mb = Modular.to_mont ctx b in
      let holds x expected =
        let expected = Nat.rem expected m in
        Nat.equal (Modular.of_mont ctx x) expected
        && Modular.mont_equal x (Modular.to_mont ctx expected)
      in
      holds (Modular.mont_add ctx ma mb) (Nat.add a b)
      && holds (Modular.mont_sub ctx ma mb) (Nat.sub (Nat.add a m) b)
      && holds (Modular.mont_neg ctx ma) (Nat.sub m a)
      && holds (Modular.mont_mul ctx ma mb) (Nat.mul a b)
      && holds (Modular.mont_sqr ctx ma) (Nat.mul a a))

(* An odd modulus of RSA width: 2^512 - 569. *)
let rsa_width_modulus = Nat.sub (Nat.shift_left Nat.one 512) (Nat.of_int 569)

(* 2^496 - 1 fills its 16 limbs, so a product can carry out of the top
   limb before the final reduction; under the two moduli above it never
   does. *)
let full_limbs_modulus = Nat.sub (Nat.shift_left Nat.one 496) Nat.one

(* --- Prime --- *)

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 11; 101; 65537; 999983 ] in
  let composites = [ 0; 1; 4; 100; 65535; 999981 ] in
  List.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (Prime.is_prime ~random_bytes (Nat.of_int p)))
    primes;
  List.iter
    (fun c -> Alcotest.(check bool) (string_of_int c) false (Prime.is_prime ~random_bytes (Nat.of_int c)))
    composites

let test_known_large_prime () =
  (* 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite *)
  let m127 = Nat.sub (Nat.pow Nat.two 127) Nat.one in
  Alcotest.(check bool) "2^127-1 prime" true (Prime.is_prime ~random_bytes m127);
  let f128 = Nat.add (Nat.pow Nat.two 128) Nat.one in
  Alcotest.(check bool) "2^128+1 composite" false (Prime.is_prime ~random_bytes f128)

let test_carmichael () =
  (* 561 = 3*11*17 fools the Fermat test but not Miller-Rabin *)
  Alcotest.(check bool) "561" false (Prime.is_prime ~random_bytes (Nat.of_int 561));
  Alcotest.(check bool) "1105" false (Prime.is_prime ~random_bytes (Nat.of_int 1105))

let test_generate_prime () =
  let p = Prime.generate ~bits:128 ~random_bytes in
  Alcotest.(check int) "exact bits" 128 (Nat.num_bits p);
  Alcotest.(check bool) "is prime" true (Prime.is_prime ~random_bytes p)

let test_random_below () =
  let bound = Nat.of_int 10 in
  for _ = 1 to 50 do
    let x = Prime.random_below ~random_bytes bound in
    Alcotest.(check bool) "in range" true (Nat.compare x bound < 0)
  done

let test_modular_tiny_modulus () =
  (* Smallest legal modulus and extreme residues. *)
  let ctx = Modular.create (Nat.of_int 3) in
  Alcotest.check nat "2*2 mod 3" Nat.one (Modular.mul ctx Nat.two Nat.two);
  Alcotest.check nat "2^-1 mod 3" Nat.two (Nat.inverse Nat.two (Nat.of_int 3))

let test_modular_extreme_residues () =
  let ctx = Modular.create p256 in
  let m1 = Nat.sub p256 Nat.one in
  (* (m-1)^2 = 1 mod m *)
  Alcotest.check nat "(m-1)^2" Nat.one (Modular.mul ctx m1 m1);
  (* operands >= m are reduced *)
  Alcotest.check nat "reduction" (Nat.of_int 4)
    (Modular.mul ctx (Nat.add p256 Nat.two) (Nat.add p256 Nat.two));
  Alcotest.check nat "even modulus rejected..." Nat.one (Modular.pow ctx m1 Nat.zero)

let test_modular_even_modulus_rejected () =
  Alcotest.check_raises "even" (Invalid_argument "Modular.create: even modulus") (fun () ->
      ignore (Modular.create (Nat.of_int 100)))

let test_p256_is_prime () =
  Alcotest.(check bool) "BN254 scalar prime" true (Prime.is_prime ~rounds:16 ~random_bytes p256)

let () =
  Alcotest.run "numeric"
    [
      ( "nat-units",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "sub underflow" `Quick test_sub_underflow;
          Alcotest.test_case "divmod small" `Quick test_divmod_small_cases;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "num_bits" `Quick test_num_bits;
          Alcotest.test_case "shift inverse" `Quick test_shift_inverse;
        ] );
      ( "nat-props",
        [
          prop_add_comm; prop_add_assoc; prop_mul_comm; prop_mul_assoc; prop_distrib;
          prop_add_sub; prop_divmod; prop_bytes_roundtrip; prop_decimal_roundtrip;
          prop_shift; prop_gcd;
        ] );
      ( "division",
        [
          Alcotest.test_case "Algorithm D rare steps" `Quick test_division_edge_cases;
          prop_divmod_reference;
          prop_rem_small;
          Alcotest.test_case "of_bytes_be lengths 0-70" `Quick test_of_bytes_be_lengths;
        ] );
      ( "modular",
        [
          Alcotest.test_case "mont roundtrip" `Quick test_mont_roundtrip;
          Alcotest.test_case "mul small" `Quick test_mod_mul_small;
          Alcotest.test_case "fermat" `Quick test_mod_pow_fermat;
          Alcotest.test_case "inverse" `Quick test_mod_inverse;
          Alcotest.test_case "inverse even modulus" `Quick test_inverse_even_modulus;
          Alcotest.test_case "inverse non-coprime" `Quick test_inverse_not_coprime;
          prop_mod_mul_matches_nat; prop_mod_add_matches_nat; prop_mod_inv;
          prop_mod_pow_agree_small; prop_mod_pow_wide;
          prop_off_kernels "512-bit modulus" rsa_width_modulus;
          prop_off_kernels "modulus 3" (Nat.of_int 3);
          prop_off_kernels "full-limb modulus" full_limbs_modulus;
          prop_off_kernels "BN254 scalar modulus" p256;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "large known prime" `Quick test_known_large_prime;
          Alcotest.test_case "carmichael numbers" `Quick test_carmichael;
          Alcotest.test_case "generate 128-bit" `Quick test_generate_prime;
          Alcotest.test_case "random_below range" `Quick test_random_below;
          Alcotest.test_case "BN254 modulus primality" `Quick test_p256_is_prime;
          Alcotest.test_case "tiny modulus" `Quick test_modular_tiny_modulus;
          Alcotest.test_case "extreme residues" `Quick test_modular_extreme_residues;
          Alcotest.test_case "even modulus" `Quick test_modular_even_modulus_rejected;
        ] );
    ]
