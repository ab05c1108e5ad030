(* FIPS 180-4 SHA-256.  The 32-bit words live in native ints masked to 32
   bits, and a context pads in its own block buffer, so a digest allocates
   only its context and the 32-byte result, whatever the message length. *)

let mask32 = 0xffff_ffff

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

type ctx = {
  h : int array;
  buf : bytes; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total bytes absorbed *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
        0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

(* A masked word written twice, at bit 0 and bit 32, so that [twice x lsr n]
   holds [x] rotated right by [n] in its low 32 bits.  A 63-bit int drops
   the copy's top bit, which no rotation by [n <= 31] reads.  Only the low
   32 bits of a rotation are meaningful: callers xor and add rotations and
   mask once, and never shift an unmasked sum right. *)
let twice x = x lor (x lsl 32)

let get32_be b off = (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- get32_be block (off + (4 * t))
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let xx = twice x and yy = twice y in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 63 do
    let ee = twice !e in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = (!e land !f) lxor (lnot !e land !g) in
    let t1 = !hh + s1 + ch + k.(t) + w.(t) in
    let aa = twice !a in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
    hh := !g;
    g := !f;
    f := !e;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := !a;
    a := (t1 + s0 + maj) land mask32
  done;
  h.(0) <- (h.(0) + !a) land mask32;
  h.(1) <- (h.(1) + !b) land mask32;
  h.(2) <- (h.(2) + !c) land mask32;
  h.(3) <- (h.(3) + !d) land mask32;
  h.(4) <- (h.(4) + !e) land mask32;
  h.(5) <- (h.(5) + !f) land mask32;
  h.(6) <- (h.(6) + !g) land mask32;
  h.(7) <- (h.(7) + !hh) land mask32

let update ctx data =
  let len = Bytes.length data in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit data 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    compress ctx data !pos;
    pos := !pos + 64
  done;
  if !pos < len then begin
    Bytes.blit data !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let update_string ctx s = update ctx (Bytes.unsafe_of_string s)

(* The 0x80 byte, the zero fill and the 64-bit big-endian bit length go
   into the block buffer; a buffer with no room for the length is
   compressed first and the length lands in one more block. *)
let finalize ctx =
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  let fill = ctx.buf_len + 1 in
  if fill > 56 then begin
    Bytes.fill buf fill (64 - fill) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf fill (56 - fill) '\000';
  let total_bits = ctx.total * 8 in
  for i = 0 to 7 do
    Bytes.set_uint8 buf (63 - i) ((total_bits lsr (8 * i)) land 0xff)
  done;
  compress ctx buf 0;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_uint16_be out (4 * i) (ctx.h.(i) lsr 16);
    Bytes.set_uint16_be out ((4 * i) + 2) (ctx.h.(i) land 0xffff)
  done;
  out

let digest data =
  let ctx = init () in
  update ctx data;
  finalize ctx

let digest_string s = digest (Bytes.unsafe_of_string s)

let to_hex b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let v = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) "0123456789abcdef".[v lsr 4];
    Bytes.set out ((2 * i) + 1) "0123456789abcdef".[v land 0xf]
  done;
  Bytes.unsafe_to_string out

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then invalid_arg "Sha256.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Sha256.of_hex: bad digit"
  in
  Bytes.init (n / 2) (fun i -> Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))
