module Sha256 = Zebra_hashing.Sha256
module Codec = Zebra_codec.Codec

type hash = bytes

type fault_action =
  | Pass
  | Lose
  | Corrupt

type t = {
  chunk_size : int;
  objects : (string, bytes) Hashtbl.t; (* hex hash -> encoded object *)
  mutable fault : (hash -> fault_action) option;
}

(* Object encoding: tag 0 = leaf carrying data, tag 1 = node carrying the
   ordered child hashes. *)
let encode_leaf data =
  Codec.encode
    (fun w () ->
      Codec.u8 w 0;
      Codec.bytes w data)
    ()

let encode_node children =
  Codec.encode
    (fun w () ->
      Codec.u8 w 1;
      Codec.list w Codec.bytes children)
    ()

type obj =
  | Leaf of bytes
  | Node of bytes list

let decode_obj b =
  Codec.decode
    (fun r ->
      match Codec.read_u8 r with
      | 0 -> Leaf (Codec.read_bytes r)
      | 1 -> Node (Codec.read_list r Codec.read_bytes)
      | _ -> raise (Codec.Decode_error "store: bad object tag"))
    b

let create ?(chunk_size = 4096) () =
  if chunk_size < 1 then invalid_arg "Store.create: chunk_size must be positive";
  { chunk_size; objects = Hashtbl.create 64; fault = None }

let set_fault t f = t.fault <- f

let key h = Sha256.to_hex h

let put_object t encoded =
  let h = Sha256.digest encoded in
  Hashtbl.replace t.objects (key h) encoded;
  h

let put t blob =
  let len = Bytes.length blob in
  if len <= t.chunk_size then put_object t (encode_leaf blob)
  else begin
    let children = ref [] in
    let pos = ref 0 in
    while !pos < len do
      let take = min t.chunk_size (len - !pos) in
      let chunk = Bytes.sub blob !pos take in
      children := put_object t (encode_leaf chunk) :: !children;
      pos := !pos + take
    done;
    put_object t (encode_node (List.rev !children))
  end

let flip_middle_byte t h =
  match Hashtbl.find_opt t.objects (key h) with
  | None -> ()
  | Some encoded ->
    let b = Bytes.copy encoded in
    let i = Bytes.length b / 2 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Hashtbl.replace t.objects (key h) b

(* Faults fire per object fetch, before the integrity check, so a corrupted
   object is always *detected* (never served) and a lost one stays lost
   until the same content is re-put. *)
let apply_fault t h =
  match t.fault with
  | None -> ()
  | Some f -> (
    match f h with
    | Pass -> ()
    | Lose -> Hashtbl.remove t.objects (key h)
    | Corrupt -> flip_middle_byte t h)

let get_object t h =
  apply_fault t h;
  match Hashtbl.find_opt t.objects (key h) with
  | None -> None
  | Some encoded ->
    (* integrity: the address must match the content *)
    if Bytes.equal (Sha256.digest encoded) h then Some encoded else None

let get t h =
  let rec fetch h =
    match get_object t h with
    | None -> None
    | Some encoded -> (
      match decode_obj encoded with
      | Leaf data -> Some data
      | Node children ->
        let parts = List.map fetch children in
        if List.exists Option.is_none parts then None
        else Some (Bytes.concat Bytes.empty (List.map Option.get parts))
      | exception Codec.Decode_error _ -> None)
  in
  fetch h

let num_objects t = Hashtbl.length t.objects

let corrupt t h =
  if not (Hashtbl.mem t.objects (key h)) then raise Not_found;
  flip_middle_byte t h
