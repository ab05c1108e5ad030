let block_size = 64

let hmac ~key msg =
  let key = if Bytes.length key > block_size then Sha256.digest key else key in
  let pad c =
    Bytes.init block_size (fun i ->
        let k = if i < Bytes.length key then Char.code (Bytes.get key i) else 0 in
        Char.chr (k lxor c))
  in
  let inner = Sha256.init () in
  Sha256.update inner (pad 0x36);
  Sha256.update inner msg;
  let outer = Sha256.init () in
  Sha256.update outer (pad 0x5c);
  Sha256.update outer (Sha256.finalize inner);
  Sha256.finalize outer
