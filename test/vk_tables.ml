(* Malformed verifying keys for the decode-or-reject tests.  A key's
   canonical bytes are its public-input count, five field elements, then
   the io_a, io_b and io_c tables, each count-prefixed; every table of an
   honest key holds one entry per public input plus the constant wire. *)

open Zebra_field
module Codec = Zebra_codec.Codec

(* [vk_bytes] re-encoded with input table [table] (0 = io_a, 1 = io_b,
   2 = io_c) replaced by [f] of it. *)
let reshape vk_bytes ~table f =
  let n, scalars, tables =
    Codec.decode
      (fun r ->
        let n = Codec.read_u32 r in
        let scalars = Array.init 5 (fun _ -> Fp.read r) in
        let tables = Array.init 3 (fun _ -> Codec.read_array r Fp.read) in
        (n, scalars, tables))
      vk_bytes
  in
  Codec.encode
    (fun w () ->
      Codec.u32 w n;
      Array.iter (Fp.write w) scalars;
      Array.iteri (fun i t -> Codec.array w Fp.write (if i = table then f t else t)) tables)
    ()

(* Each table one entry short, and each table empty, with a label. *)
let malformed vk_bytes =
  let drop_last t = Array.sub t 0 (Array.length t - 1) in
  List.concat_map
    (fun (table, name) ->
      [
        (name ^ " one short", reshape vk_bytes ~table drop_last);
        (name ^ " empty", reshape vk_bytes ~table (fun _ -> [||]));
      ])
    [ (0, "io_a"); (1, "io_b"); (2, "io_c") ]
