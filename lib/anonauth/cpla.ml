module Snark = Zebra_snark.Snark
module Codec = Zebra_codec.Codec
module Hash_composition = Zebra_hashcomp.Hash_composition
open Zebra_r1cs

type params = { depth : int; composition : Hash_composition.t; keys : Snark.keypair }

type user_key = { sk : Fp.t; pk : Fp.t }

let key_canary (k : user_key) = Fp.to_bytes_be k.sk

type attestation = { t1 : Fp.t; t2 : Fp.t; proof : Snark.proof }

(* Synthesise the Auth circuit.  Public inputs (in order): prefix, message,
   root, t1, t2.  Witness: sk, certificate path bits and siblings. *)
let synthesize cs ~composition ~depth ~prefix ~message ~root ~t1 ~t2 ~sk ~index ~path =
  let open Gadgets in
  let hash = Hash_composition.hash_gadget composition cs in
  let v_prefix = Cs.alloc_input cs prefix in
  let v_message = Cs.alloc_input cs message in
  let v_root = Cs.alloc_input cs root in
  let v_t1 = Cs.alloc_input cs t1 in
  let v_t2 = Cs.alloc_input cs t2 in
  let v_sk = Cs.alloc cs ~label:"sk" sk in
  (* pair(pk, sk): the public key is determined by the secret key. *)
  let pk = hash [ v v_sk ] in
  (* t1 = H(prefix, sk); t2 = H(prefix || m, sk). *)
  enforce_eq cs ~label:"t1" (hash [ v v_prefix; v v_sk ]) (v v_t1);
  enforce_eq cs ~label:"t2" (hash [ v v_prefix; v v_message; v v_sk ]) (v v_t2);
  (* CertVrfy: pk is a registered leaf under the RA root. *)
  let path_bits = Array.init depth (fun l -> alloc_bit cs ((index lsr l) land 1 = 1)) in
  let siblings = Array.map (fun s -> Cs.alloc cs ~label:"sibling" s) path in
  let computed_root =
    Hash_composition.merkle_root_gadget composition cs ~leaf:pk ~path_bits ~siblings
  in
  enforce_eq cs ~label:"certificate" computed_root (v v_root)

(* Dummy values: the structure (and hence setup, and the static analyzer's
   view) only depends on (composition, depth). *)
let synthesize_dummy ?(composition = Hash_composition.default) ~depth cs =
  let z = Fp.zero in
  synthesize cs ~composition ~depth ~prefix:z ~message:z ~root:z ~t1:z ~t2:z ~sk:z ~index:0
    ~path:(Array.make depth z)

(* (composition, depth) determines the synthesised structure; encoding both
   in the cache id keeps the arms' keypairs strictly apart. *)
let circuit_id ?(composition = Hash_composition.default) ~depth () =
  Printf.sprintf "cpla/depth=%d/h=%s" depth (Hash_composition.to_string composition)

let setup_cached ?(composition = Hash_composition.default) cache ~seed ~depth =
  if depth < 1 then invalid_arg "Cpla.setup_cached: need depth >= 1";
  let keys =
    Snark.Keycache.setup_named cache ~circuit_id:(circuit_id ~composition ~depth ()) ~seed
      (synthesize_dummy ~composition ~depth)
  in
  { depth; composition; keys }

let depth p = p.depth
let composition p = p.composition
let circuit_size p = Snark.num_constraints p.keys.Snark.pk

let keygen_rng ?(composition = Hash_composition.default) ~rng () =
  let sk = Fp.random (Zebra_rng.Source.fn rng) in
  { sk; pk = Hash_composition.hash_list composition [ sk ] }

let auth_rng ~rng p ~prefix ~message ~key ~index ~path ~root =
  if Array.length path <> p.depth then invalid_arg "Cpla.auth_rng: wrong path depth";
  let t1 = Hash_composition.hash_list p.composition [ prefix; key.sk ] in
  let t2 = Hash_composition.hash_list p.composition [ prefix; message; key.sk ] in
  let proof =
    Snark.prove_synth_rng ~rng p.keys.Snark.pk (fun cs ->
        synthesize cs ~composition:p.composition ~depth:p.depth ~prefix ~message ~root ~t1 ~t2
          ~sk:key.sk ~index ~path)
  in
  { t1; t2; proof }

let public_inputs ~prefix ~message ~root att = [| prefix; message; root; att.t1; att.t2 |]

let verify p ~prefix ~message ~root att =
  Snark.verify p.keys.Snark.vk ~public_inputs:(public_inputs ~prefix ~message ~root att)
    att.proof

let link a b = Fp.equal a.t1 b.t1

let attestation_to_bytes att =
  Codec.encode
    (fun w att ->
      Fp.write w att.t1;
      Fp.write w att.t2;
      Codec.bytes w (Snark.proof_to_bytes att.proof))
    att

let attestation_of_bytes b =
  Codec.decode
    (fun r ->
      let t1 = Fp.read r in
      let t2 = Fp.read r in
      let proof = Snark.proof_of_bytes (Codec.read_bytes r) in
      { t1; t2; proof })
    b

let attestation_size_bytes att = Bytes.length (attestation_to_bytes att)

let vk_to_bytes p = Snark.vk_to_bytes p.keys.Snark.vk

let verify_with_vk ~vk_bytes ~prefix ~message ~root att =
  Snark.verify_vk_bytes ~vk_bytes ~public_inputs:(public_inputs ~prefix ~message ~root att)
    att.proof
