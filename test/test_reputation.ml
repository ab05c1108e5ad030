(* Anonymous reputation tests: the epoch-pseudonym link circuit and the
   reputation contract's credit/claim lifecycle on the chain. *)

open Zebra_field
open Zebra_chain
open Zebralancer
module Cpla = Zebra_anonauth.Cpla

let rng = Zebra_rng.Chacha20.create ~seed:"test_reputation"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let src = Zebra_rng.Source.of_chacha rng
let fresh_fp () = Fp.random random_bytes

(* A one-off trusted setup: a fresh memo, a fixed seed. *)
let setup ?composition () =
  Reputation.setup_cached ?composition (Zebra_snark.Snark.Keycache.create ())
    ~seed:"test_reputation"

let params = lazy (setup ())
let vk = lazy (Reputation.vk_bytes (Lazy.force params))

let worker = lazy (Cpla.keygen_rng ~rng:src ())

(* --- link circuit --- *)

let test_link_proof_verifies () =
  let p = Lazy.force params and key = Lazy.force worker in
  let task_prefix = fresh_fp () in
  let proof = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:3 in
  Alcotest.(check bool) "verifies" true
    (Reputation.verify_link ~vk_bytes:(Lazy.force vk)
       ~task_tag:(Reputation.task_tag key ~task_prefix)
       ~pseudonym:(Reputation.epoch_pseudonym key ~epoch:3)
       ~task_prefix ~epoch:3 proof)

let test_task_tag_matches_cpla_t1 () =
  (* The reputation task tag is exactly the t1 the worker's submission left
     in the task contract's storage. *)
  let key = Lazy.force worker in
  let depth = 3 in
  let cpla =
    Cpla.setup_cached (Zebra_snark.Snark.Keycache.create ()) ~seed:"test_reputation" ~depth
  in
  let ra = Zebra_anonauth.Ra.create ~depth () in
  let i = Zebra_anonauth.Ra.register ra key.Cpla.pk in
  let task_prefix = fresh_fp () in
  let att =
    Cpla.auth_rng ~rng:src cpla ~prefix:task_prefix ~message:(fresh_fp ()) ~key ~index:i
      ~path:(Zebra_anonauth.Ra.path ra i) ~root:(Zebra_anonauth.Ra.root ra)
  in
  Alcotest.(check bool) "tags agree" true
    (Fp.equal att.Cpla.t1 (Reputation.task_tag key ~task_prefix))

let test_wrong_pseudonym_rejected () =
  (* Claiming onto someone else's pseudonym fails: same sk must underlie
     both tags. *)
  let p = Lazy.force params and key = Lazy.force worker in
  let other = Cpla.keygen_rng ~rng:src () in
  let task_prefix = fresh_fp () in
  let proof = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:1 in
  Alcotest.(check bool) "stolen pseudonym rejected" false
    (Reputation.verify_link ~vk_bytes:(Lazy.force vk)
       ~task_tag:(Reputation.task_tag key ~task_prefix)
       ~pseudonym:(Reputation.epoch_pseudonym other ~epoch:1)
       ~task_prefix ~epoch:1 proof)

let test_wrong_epoch_rejected () =
  let p = Lazy.force params and key = Lazy.force worker in
  let task_prefix = fresh_fp () in
  let proof = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:1 in
  Alcotest.(check bool) "epoch mismatch rejected" false
    (Reputation.verify_link ~vk_bytes:(Lazy.force vk)
       ~task_tag:(Reputation.task_tag key ~task_prefix)
       ~pseudonym:(Reputation.epoch_pseudonym key ~epoch:1)
       ~task_prefix ~epoch:2 proof)

let test_pseudonyms_unlinkable_across_epochs () =
  let key = Lazy.force worker in
  Alcotest.(check bool) "distinct pseudonyms" false
    (Fp.equal (Reputation.epoch_pseudonym key ~epoch:1) (Reputation.epoch_pseudonym key ~epoch:2))

(* --- contract lifecycle --- *)

let chain_fixture =
  lazy
    (Reputation_contract.register ();
     let owner = Wallet.generate ~bits:512 ~random_bytes () in
     let stranger = Wallet.generate ~bits:512 ~random_bytes () in
     let net =
       Network.create ~num_nodes:2
         ~genesis:[ (Wallet.address owner, 1000); (Wallet.address stranger, 1000) ]
         ()
     in
     let deploy =
       Tx.make ~wallet:owner ~nonce:0
         ~dst:
           (Tx.Create
              {
                behavior = Reputation_contract.behavior_name;
                args = Reputation_contract.init_args ~link_vk:(Lazy.force vk);
              })
         ~value:0 ~payload:Bytes.empty
     in
     Network.submit net deploy;
     ignore (Network.mine net);
     let addr = Address.of_creator (Wallet.address owner) 0 in
     assert (Network.is_contract net addr);
     (net, owner, stranger, addr))

let call net wallet addr msg =
  let tx =
    Tx.make ~wallet ~nonce:(Network.nonce net (Wallet.address wallet)) ~dst:(Tx.Call addr)
      ~value:0 ~payload:(Reputation_contract.message_to_bytes msg)
  in
  Network.submit net tx;
  ignore (Network.mine net);
  Option.get (Network.receipt net (Tx.hash tx))

let storage net addr =
  Reputation_contract.storage_of_bytes (Option.get (Network.contract_storage net addr))

let test_contract_credit_claim_cycle () =
  let net, owner, stranger, addr = Lazy.force chain_fixture in
  let p = Lazy.force params and key = Lazy.force worker in
  let task_prefix = fresh_fp () in
  let tag = Reputation.task_tag key ~task_prefix in
  (* stranger cannot credit *)
  (match call net stranger addr (Reputation_contract.Credit { task_tag = tag; task_prefix; score = 5 }) with
  | { State.status = State.Failed "only the owner credits"; _ } -> ()
  | _ -> Alcotest.fail "stranger credited");
  (* owner credits *)
  (match call net owner addr (Reputation_contract.Credit { task_tag = tag; task_prefix; score = 5 }) with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "credit failed");
  (* double credit refused *)
  (match call net owner addr (Reputation_contract.Credit { task_tag = tag; task_prefix; score = 5 }) with
  | { State.status = State.Failed "tag already credited"; _ } -> ()
  | _ -> Alcotest.fail "double credit accepted");
  (* worker claims onto the epoch-0 pseudonym *)
  let pseudonym = Reputation.epoch_pseudonym key ~epoch:0 in
  let proof = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:0 in
  (match
     call net stranger addr
       (Reputation_contract.Claim
          { task_tag = tag; pseudonym; proof = Zebra_snark.Snark.proof_to_bytes proof })
   with
  | { State.status = State.Ok _; _ } -> ()
  | { State.status = State.Failed m; _ } -> Alcotest.failf "claim failed: %s" m);
  Alcotest.(check int) "score accumulated" 5 (Reputation_contract.score (storage net addr) pseudonym);
  (* claim once only *)
  match
    call net stranger addr
      (Reputation_contract.Claim
         { task_tag = tag; pseudonym; proof = Zebra_snark.Snark.proof_to_bytes proof })
  with
  | { State.status = State.Failed "no unclaimed credit for this tag"; _ } -> ()
  | _ -> Alcotest.fail "double claim accepted"

let test_contract_epoch_advance () =
  let net, owner, _, addr = Lazy.force chain_fixture in
  let p = Lazy.force params and key = Lazy.force worker in
  let task_prefix = fresh_fp () in
  let tag = Reputation.task_tag key ~task_prefix in
  (match call net owner addr (Reputation_contract.Credit { task_tag = tag; task_prefix; score = 7 }) with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "credit failed");
  (match call net owner addr Reputation_contract.Advance_epoch with
  | { State.status = State.Ok _; _ } -> ()
  | _ -> Alcotest.fail "advance failed");
  let epoch = (storage net addr).Reputation_contract.epoch in
  (* a proof for the old epoch is refused; the new-epoch one accepted *)
  let stale = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:(epoch - 1) in
  (match
     call net owner addr
       (Reputation_contract.Claim
          {
            task_tag = tag;
            pseudonym = Reputation.epoch_pseudonym key ~epoch:(epoch - 1);
            proof = Zebra_snark.Snark.proof_to_bytes stale;
          })
   with
  | { State.status = State.Failed "invalid link proof"; _ } -> ()
  | _ -> Alcotest.fail "stale-epoch claim accepted");
  let fresh = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch in
  match
    call net owner addr
      (Reputation_contract.Claim
         {
           task_tag = tag;
           pseudonym = Reputation.epoch_pseudonym key ~epoch;
           proof = Zebra_snark.Snark.proof_to_bytes fresh;
         })
  with
  | { State.status = State.Ok _; _ } -> ()
  | { State.status = State.Failed m; _ } -> Alcotest.failf "fresh claim failed: %s" m

(* A board deployed with a link key whose input tables are short or empty
   turns every claim away as an invalid proof: the key does not decode,
   so the check never indexes past a table into an exception receipt. *)
let test_contract_malformed_link_vk () =
  let net, owner, stranger, _ = Lazy.force chain_fixture in
  let p = Lazy.force params and key = Lazy.force worker in
  let task_prefix = fresh_fp () in
  let tag = Reputation.task_tag key ~task_prefix in
  let pseudonym = Reputation.epoch_pseudonym key ~epoch:0 in
  let proof =
    Zebra_snark.Snark.proof_to_bytes
      (Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:0)
  in
  List.iter
    (fun (what, link_vk) ->
      let nonce = Network.nonce net (Wallet.address owner) in
      Network.submit net
        (Tx.make ~wallet:owner ~nonce
           ~dst:
             (Tx.Create
                {
                  behavior = Reputation_contract.behavior_name;
                  args = Reputation_contract.init_args ~link_vk;
                })
           ~value:0 ~payload:Bytes.empty);
      ignore (Network.mine net);
      let board = Address.of_creator (Wallet.address owner) nonce in
      let credit = Reputation_contract.Credit { task_tag = tag; task_prefix; score = 1 } in
      (match call net owner board credit with
      | { State.status = State.Ok _; _ } -> ()
      | _ -> Alcotest.failf "%s: credit failed" what);
      let claim = Reputation_contract.Claim { task_tag = tag; pseudonym; proof } in
      match call net stranger board claim with
      | { State.status = State.Failed "invalid link proof"; _ } -> ()
      | { State.status = State.Failed m; _ } -> Alcotest.failf "%s: claim failed with %S" what m
      | { State.status = State.Ok _; _ } -> Alcotest.failf "%s: claim accepted" what)
    (Vk_tables.malformed (Lazy.force vk))

(* --- hash composition arms --- *)

let test_mimc_arm_roundtrip () =
  (* The MiMC ablation arm stays provable end to end, and its tags live in
     a different space than the Poseidon default's. *)
  let composition = Zebra_hashcomp.Hash_composition.Mimc in
  let p = setup ~composition () in
  Alcotest.(check string) "params record the arm" "mimc"
    (Zebra_hashcomp.Hash_composition.to_string (Reputation.composition p));
  let key = Cpla.keygen_rng ~composition ~rng:src () in
  let task_prefix = fresh_fp () in
  let proof = Reputation.prove_link ~random_bytes p ~key ~task_prefix ~epoch:2 in
  Alcotest.(check bool) "mimc link proof verifies" true
    (Reputation.verify_link ~vk_bytes:(Reputation.vk_bytes p)
       ~task_tag:(Reputation.task_tag ~composition key ~task_prefix)
       ~pseudonym:(Reputation.epoch_pseudonym ~composition key ~epoch:2)
       ~task_prefix ~epoch:2 proof);
  Alcotest.(check bool) "arms tag differently" false
    (Fp.equal
       (Reputation.task_tag ~composition key ~task_prefix)
       (Reputation.task_tag key ~task_prefix))

let () =
  Alcotest.run "reputation"
    [
      ( "link-circuit",
        [
          Alcotest.test_case "proof verifies" `Quick test_link_proof_verifies;
          Alcotest.test_case "tag matches CPLA t1" `Quick test_task_tag_matches_cpla_t1;
          Alcotest.test_case "wrong pseudonym" `Quick test_wrong_pseudonym_rejected;
          Alcotest.test_case "wrong epoch" `Quick test_wrong_epoch_rejected;
          Alcotest.test_case "epoch unlinkability" `Quick test_pseudonyms_unlinkable_across_epochs;
        ] );
      ( "contract",
        [
          Alcotest.test_case "credit/claim cycle" `Quick test_contract_credit_claim_cycle;
          Alcotest.test_case "epoch advance" `Quick test_contract_epoch_advance;
          Alcotest.test_case "malformed link key" `Quick test_contract_malformed_link_vk;
        ] );
      ( "composition",
        [ Alcotest.test_case "mimc arm roundtrip" `Slow test_mimc_arm_roundtrip ] );
    ]
