type t = { bytes : int -> bytes }

let of_fn f = { bytes = f }
let of_chacha rng = { bytes = Chacha20.bytes rng }
let of_seed seed = of_chacha (Chacha20.create ~seed)
let bytes t n = t.bytes n
let fn t = t.bytes
