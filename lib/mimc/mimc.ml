let rounds = 91
let exponent = 7

let round_constants =
  Array.init rounds (fun i ->
      if i = 0 then Fp.zero
      else begin
        let d = Zebra_hashing.Sha256.digest_string (Printf.sprintf "ZebraLancer.MiMC.%d" i) in
        Fp.of_bytes_be d
      end)

let pow7 x =
  let x2 = Fp.sqr x in
  let x4 = Fp.sqr x2 in
  Fp.mul (Fp.mul x4 x2) x

let encrypt ~key x =
  let acc = ref x in
  for i = 0 to rounds - 1 do
    acc := pow7 (Fp.add (Fp.add !acc key) round_constants.(i))
  done;
  Fp.add !acc key

(* x^(1/7) = x^e_inv where e_inv = 7^{-1} mod (r-1). *)
let seventh_root_exp =
  let r_minus_1 = Nat.sub Fp.modulus Nat.one in
  Nat.inverse (Nat.of_int 7) r_minus_1

let decrypt ~key y =
  let acc = ref (Fp.sub y key) in
  for i = rounds - 1 downto 0 do
    acc := Fp.sub (Fp.sub (Fp.pow !acc seventh_root_exp) key) round_constants.(i)
  done;
  !acc

let compress h m = Fp.add (Fp.add (encrypt ~key:h m) m) h

let hash_list ms =
  let len = Fp.of_int (List.length ms) in
  List.fold_left compress (compress Fp.zero len) ms

let hash2 a b = hash_list [ a; b ]

let hash_bytes b = hash_list [ Fp.of_bytes_be (Zebra_hashing.Sha256.digest b) ]
