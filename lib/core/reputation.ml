module Snark = Zebra_snark.Snark
module Cpla = Zebra_anonauth.Cpla
module Hash_composition = Zebra_hashcomp.Hash_composition
open Zebra_r1cs

type params = {
  composition : Hash_composition.t;
  keys : Snark.keypair;
  n_constraints : int;
}

type claim_proof = Snark.proof

(* Public inputs (in order): task_tag, pseudonym, task_prefix, epoch. *)
let synthesize cs ~composition ~task_tag ~pseudonym ~task_prefix ~epoch ~sk =
  let open Gadgets in
  let hash = Hash_composition.hash_gadget composition cs in
  let v_tag = Cs.alloc_input cs task_tag in
  let v_pseudo = Cs.alloc_input cs pseudonym in
  let v_prefix = Cs.alloc_input cs task_prefix in
  let v_epoch = Cs.alloc_input cs epoch in
  let v_sk = Cs.alloc cs sk in
  enforce_eq cs ~label:"task tag" (hash [ v v_prefix; v v_sk ]) (v v_tag);
  enforce_eq cs ~label:"epoch pseudonym" (hash [ v v_epoch; v v_sk ]) (v v_pseudo)

let synthesize_dummy ?(composition = Hash_composition.default) cs =
  let z = Fp.zero in
  synthesize cs ~composition ~task_tag:z ~pseudonym:z ~task_prefix:z ~epoch:z ~sk:z

let constraint_system ?composition () =
  let cs = Cs.create () in
  synthesize_dummy ?composition cs;
  cs

let setup ?(composition = Hash_composition.default) ~random_bytes () =
  let cs = constraint_system ~composition () in
  let keys = Snark.setup_rng ~rng:(Zebra_rng.Source.of_fn random_bytes) cs in
  { composition; keys; n_constraints = Cs.num_constraints cs }

(* The link circuit has a single fixed structure per composition, so the
   composition-suffixed id keys it (arms never share keypairs). *)
let circuit_id ?(composition = Hash_composition.default) () =
  Printf.sprintf "reputation/link/h=%s" (Hash_composition.to_string composition)

let setup_cached ?(composition = Hash_composition.default) cache ~seed =
  let keys, shape =
    Snark.Keycache.setup_named cache ~circuit_id:(circuit_id ~composition ()) ~seed (fun () ->
        constraint_system ~composition ())
  in
  { composition; keys; n_constraints = shape.Snark.Keycache.constraints }

let composition p = p.composition
let circuit_size p = p.n_constraints
let vk_bytes p = Snark.vk_to_bytes p.keys.Snark.vk

let epoch_field e =
  if e < 0 then invalid_arg "Reputation: negative epoch";
  Fp.of_int e

let task_tag ?(composition = Hash_composition.default) (key : Cpla.user_key) ~task_prefix =
  Hash_composition.hash_list composition [ task_prefix; key.Cpla.sk ]

let epoch_pseudonym ?(composition = Hash_composition.default) (key : Cpla.user_key) ~epoch =
  Hash_composition.hash_list composition [ epoch_field epoch; key.Cpla.sk ]

let prove_link ~random_bytes p ~key ~task_prefix ~epoch =
  let composition = p.composition in
  let tag = task_tag ~composition key ~task_prefix in
  let pseudonym = epoch_pseudonym ~composition key ~epoch in
  Snark.prove_synth_rng ~rng:(Zebra_rng.Source.of_fn random_bytes) p.keys.Snark.pk (fun cs ->
      synthesize cs ~composition ~task_tag:tag ~pseudonym ~task_prefix
        ~epoch:(epoch_field epoch) ~sk:key.Cpla.sk)

let verify_link ~vk_bytes ~task_tag ~pseudonym ~task_prefix ~epoch proof =
  match Snark.vk_of_bytes_cached vk_bytes with
  | vk ->
    Snark.verify vk
      ~public_inputs:[| task_tag; pseudonym; task_prefix; epoch_field epoch |]
      proof
  | exception Zebra_codec.Codec.Decode_error _ -> false
