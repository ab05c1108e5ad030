module Snark = Zebra_snark.Snark
module Cpla = Zebra_anonauth.Cpla
module Hash_composition = Zebra_hashcomp.Hash_composition
open Zebra_r1cs

type params = { composition : Hash_composition.t; keys : Snark.keypair }

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

(* The link circuit has a single fixed structure per composition, so the
   composition-suffixed id keys it (arms never share keypairs). *)
let circuit_id ?(composition = Hash_composition.default) () =
  Printf.sprintf "reputation/link/h=%s" (Hash_composition.to_string composition)

let setup_cached ?(composition = Hash_composition.default) cache ~seed =
  let keys =
    Snark.Keycache.setup_named cache ~circuit_id:(circuit_id ~composition ()) ~seed
      (synthesize_dummy ~composition)
  in
  { composition; keys }

let composition p = p.composition
let circuit_size p = Snark.num_constraints p.keys.Snark.pk
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
  Snark.verify_vk_bytes ~vk_bytes
    ~public_inputs:[| task_tag; pseudonym; task_prefix; epoch_field epoch |]
    proof
