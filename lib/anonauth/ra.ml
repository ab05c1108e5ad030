module Hash_composition = Zebra_hashcomp.Hash_composition

type t = {
  depth : int;
  hash : Hash_composition.t;
  levels : (int, Fp.t) Hashtbl.t array; (* levels.(0) = leaves ... levels.(depth) = root *)
  defaults : Fp.t array; (* default node value per level *)
  mutable next : int;
  registered : (string, int) Hashtbl.t; (* pk (hex of bytes) -> index *)
}

let create ?(hash = Hash_composition.default) ~depth () =
  if depth < 1 || depth > 30 then invalid_arg "Ra.create: depth out of range";
  let defaults = Array.make (depth + 1) Fp.zero in
  for l = 1 to depth do
    defaults.(l) <- Hash_composition.hash2 hash defaults.(l - 1) defaults.(l - 1)
  done;
  {
    depth;
    hash;
    levels = Array.init (depth + 1) (fun _ -> Hashtbl.create 64);
    defaults;
    next = 0;
    registered = Hashtbl.create 64;
  }

let hash_composition t = t.hash
let capacity t = 1 lsl t.depth

let node t level index =
  match Hashtbl.find_opt t.levels.(level) index with
  | Some v -> v
  | None -> t.defaults.(level)

let root t = node t t.depth 0

let key_of_pk pk = Zebra_hashing.Sha256.to_hex (Fp.to_bytes_be pk)

let register t pk =
  if t.next >= capacity t then failwith "Ra.register: tree full";
  if Hashtbl.mem t.registered (key_of_pk pk) then failwith "Ra.register: duplicate identity";
  let index = t.next in
  t.next <- index + 1;
  Hashtbl.replace t.registered (key_of_pk pk) index;
  Hashtbl.replace t.levels.(0) index pk;
  let i = ref index in
  for l = 0 to t.depth - 1 do
    let parent = !i / 2 in
    let left = node t l (2 * parent) in
    let right = node t l ((2 * parent) + 1) in
    Hashtbl.replace t.levels.(l + 1) parent (Hash_composition.hash2 t.hash left right);
    i := parent
  done;
  index

let path t index =
  if index < 0 || index >= capacity t then invalid_arg "Ra.path: index out of range";
  Array.init t.depth (fun l ->
      let i = index lsr l in
      node t l (i lxor 1))

let verify_path ?(hash = Hash_composition.default) ~root:expected ~leaf ~index path =
  let h2 = Hash_composition.hash2 hash in
  let cur = ref leaf in
  Array.iteri
    (fun l sibling ->
      let bit = (index lsr l) land 1 in
      cur := if bit = 1 then h2 sibling !cur else h2 !cur sibling)
    path;
  Fp.equal !cur expected
