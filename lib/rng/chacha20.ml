(* RFC 8439 ChaCha20.  The 32-bit state words live in native ints masked
   to 32 bits, and a stream reuses one state, scratch and block buffer, so
   drawing bytes allocates only the returned [bytes]. *)

let mask32 = 0xffff_ffff

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let quarter_round st a b c d =
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7

let get32_le b off = Bytes.get_uint16_le b off lor (Bytes.get_uint16_le b (off + 2) lsl 16)

let put32_le b off v =
  Bytes.set_uint16_le b off (v land 0xffff);
  Bytes.set_uint16_le b (off + 2) ((v lsr 16) land 0xffff)

(* The 16-word initial state for [key] and [nonce], block counter 0. *)
let initial_state ~key ~nonce =
  let st = Array.make 16 0 in
  st.(0) <- 0x61707865;
  st.(1) <- 0x3320646e;
  st.(2) <- 0x79622d32;
  st.(3) <- 0x6b206574;
  for i = 0 to 7 do
    st.(4 + i) <- get32_le key (4 * i)
  done;
  for i = 0 to 2 do
    st.(13 + i) <- get32_le nonce (4 * i)
  done;
  st

(* [out] <- the keystream block of state [st], using [work] as scratch. *)
let block_into st work out =
  Array.blit st 0 work 0 16;
  for _ = 1 to 10 do
    quarter_round work 0 4 8 12;
    quarter_round work 1 5 9 13;
    quarter_round work 2 6 10 14;
    quarter_round work 3 7 11 15;
    quarter_round work 0 5 10 15;
    quarter_round work 1 6 11 12;
    quarter_round work 2 7 8 13;
    quarter_round work 3 4 9 14
  done;
  for i = 0 to 15 do
    put32_le out (4 * i) (work.(i) + st.(i))
  done

let block ~key ~counter ~nonce =
  if Bytes.length key <> 32 then invalid_arg "Chacha20.block: key must be 32 bytes";
  if Bytes.length nonce <> 12 then invalid_arg "Chacha20.block: nonce must be 12 bytes";
  let st = initial_state ~key ~nonce in
  st.(12) <- Int32.to_int counter land mask32;
  let out = Bytes.create 64 in
  block_into st (Array.make 16 0) out;
  out

type t = {
  state : int array; (* word 12 is the counter of the next block *)
  work : int array;
  buf : bytes; (* the current block *)
  mutable pos : int; (* bytes of [buf] already handed out *)
}

let create ~seed =
  let key = Bytes.make 32 '\000' in
  (* Simple seed expansion: xor-fold the seed into the key.  The seed is a
     test/bench label, not secret material. *)
  String.iteri
    (fun i c ->
      let j = i mod 32 in
      Bytes.set key j (Char.chr (Char.code (Bytes.get key j) lxor Char.code c lxor (i land 0xff))))
    seed;
  {
    state = initial_state ~key ~nonce:(Bytes.make 12 '\000');
    work = Array.make 16 0;
    buf = Bytes.create 64;
    pos = 64;
  }

let bytes t n =
  let out = Bytes.create n in
  let filled = ref 0 in
  while !filled < n do
    if t.pos = 64 then begin
      block_into t.state t.work t.buf;
      t.state.(12) <- (t.state.(12) + 1) land mask32;
      t.pos <- 0
    end;
    let take = min (64 - t.pos) (n - !filled) in
    Bytes.blit t.buf t.pos out !filled take;
    t.pos <- t.pos + take;
    filled := !filled + take
  done;
  out
