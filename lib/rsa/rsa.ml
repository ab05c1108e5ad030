module Codec = Zebra_codec.Codec

type public_key = { n : Nat.t; e : Nat.t }

type private_key = {
  pub : public_key;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t;
  dq : Nat.t;
  qinv : Nat.t;
}

let e65537 = Nat.of_int 65537

let generate ~bits ~random_bytes =
  if bits < 256 then invalid_arg "Rsa.generate: need at least 256-bit modulus";
  let half = bits / 2 in
  let rec gen_pair () =
    let p = Prime.generate ~bits:half ~random_bytes in
    let q = Prime.generate ~bits:(bits - half) ~random_bytes in
    if Nat.equal p q then gen_pair ()
    else begin
      let n = Nat.mul p q in
      (* Exact modulus width and e coprime to lambda. *)
      let p1 = Nat.sub p Nat.one and q1 = Nat.sub q Nat.one in
      let lambda = Nat.div (Nat.mul p1 q1) (Nat.gcd p1 q1) in
      if Nat.num_bits n <> bits || not (Nat.equal (Nat.gcd e65537 lambda) Nat.one) then
        gen_pair ()
      else (p, q, n, p1, q1, lambda)
    end
  in
  let p, q, n, p1, q1, lambda = gen_pair () in
  (* Keep p > q so the CRT recombination needs a single correction term. *)
  let p, q, p1, q1 = if Nat.compare p q > 0 then (p, q, p1, q1) else (q, p, q1, p1) in
  let d = Nat.inverse e65537 lambda in
  {
    pub = { n; e = e65537 };
    d;
    p;
    q;
    dp = Nat.rem d p1;
    dq = Nat.rem d q1;
    qinv = Nat.inverse q p;
  }

let key_bytes pub = (Nat.num_bits pub.n + 7) / 8

let raw_public pub m =
  if Nat.compare m pub.n >= 0 then invalid_arg "Rsa.raw_public: message too large";
  let ctx = Modular.create pub.n in
  Modular.pow ctx m pub.e

let raw_private priv c =
  if Nat.compare c priv.pub.n >= 0 then invalid_arg "Rsa.raw_private: ciphertext too large";
  let ctx_p = Modular.create priv.p in
  let ctx_q = Modular.create priv.q in
  (* The two half-size exponentiations are independent; each half is a pure
     function of (c, key), so running them on separate domains cannot change
     the result. *)
  let m1, m2 =
    Zebra_parallel.Parallel.both
      (fun () -> Modular.pow ctx_p (Nat.rem c priv.p) priv.dp)
      (fun () -> Modular.pow ctx_q (Nat.rem c priv.q) priv.dq)
  in
  (* Garner: m = m2 + q * ((m1 - m2) qinv mod p) *)
  let diff = Modular.sub ctx_p m1 (Nat.rem m2 priv.p) in
  let h = Modular.mul ctx_p diff priv.qinv in
  Nat.add m2 (Nat.mul priv.q h)

let public_key_to_bytes pub =
  Codec.encode
    (fun w pub ->
      Codec.bytes w (Nat.to_bytes_be pub.n);
      Codec.bytes w (Nat.to_bytes_be pub.e))
    pub

(* The writer emits each field's shortest form, so a leading zero byte
   would be a second encoding of the same key. *)
let read_field r =
  let b = Codec.read_bytes r in
  if Bytes.length b > 0 && Bytes.get b 0 = '\000' then
    raise (Codec.Decode_error "rsa: key field has a leading zero byte");
  Nat.of_bytes_be b

let public_key_of_bytes b =
  Codec.decode
    (fun r ->
      let n = read_field r in
      let e = read_field r in
      { n; e })
    b

let equal_public_key a b = Nat.equal a.n b.n && Nat.equal a.e b.e
