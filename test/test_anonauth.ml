(* Tests for the common-prefix-linkable anonymous authentication scheme:
   correctness, common-prefix-linkability, unlinkability across prefixes,
   unforgeability negatives, and the RA tree. *)

open Zebra_field
module Ra = Zebra_anonauth.Ra
module Cpla = Zebra_anonauth.Cpla
module Mimc = Zebra_mimc.Mimc
module Hc = Zebra_hashcomp.Hash_composition

let qtest name ~count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let rng = Zebra_rng.Chacha20.create ~seed:"test_anonauth"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n
let src = Zebra_rng.Source.of_chacha rng
let fresh_fp () = Fp.random random_bytes

let fp = Alcotest.testable Fp.pp Fp.equal

let depth = 4 (* small tree keeps proving fast in tests *)

(* A one-off trusted setup: a fresh memo, a fixed seed. *)
let setup ?composition ~depth () =
  Cpla.setup_cached ?composition (Zebra_snark.Snark.Keycache.create ()) ~seed:"test_anonauth"
    ~depth

(* Shared fixture: params, RA, two registered users. *)
let fixture =
  lazy
    (let params = setup ~depth () in
     let ra = Ra.create ~depth () in
     let alice = Cpla.keygen_rng ~rng:src () in
     let bob = Cpla.keygen_rng ~rng:src () in
     let ia = Ra.register ra alice.Cpla.pk in
     let ib = Ra.register ra bob.Cpla.pk in
     (params, ra, (alice, ia), (bob, ib)))

let auth_as params ra (key, index) ~prefix ~message =
  Cpla.auth_rng ~rng:src params ~prefix ~message ~key ~index ~path:(Ra.path ra index)
    ~root:(Ra.root ra)

(* --- RA tree --- *)

let test_ra_tree_roots_change () =
  let ra = Ra.create ~depth:3 () in
  let r0 = Ra.root ra in
  let _ = Ra.register ra (fresh_fp ()) in
  let r1 = Ra.root ra in
  Alcotest.(check bool) "root changes on registration" false (Fp.equal r0 r1)

let test_ra_paths_verify () =
  let ra = Ra.create ~depth:3 () in
  let pks = List.init 5 (fun _ -> fresh_fp ()) in
  let idxs = List.map (Ra.register ra) pks in
  List.iter2
    (fun pk i ->
      Alcotest.(check bool)
        (Printf.sprintf "leaf %d" i)
        true
        (Ra.verify_path ~root:(Ra.root ra) ~leaf:pk ~index:i (Ra.path ra i)))
    pks idxs

let test_ra_duplicate_refused () =
  let ra = Ra.create ~depth:3 () in
  let pk = fresh_fp () in
  let _ = Ra.register ra pk in
  Alcotest.check_raises "duplicate" (Failure "Ra.register: duplicate identity") (fun () ->
      ignore (Ra.register ra pk))

let test_ra_full () =
  let ra = Ra.create ~depth:1 () in
  let _ = Ra.register ra (fresh_fp ()) in
  let _ = Ra.register ra (fresh_fp ()) in
  Alcotest.check_raises "full" (Failure "Ra.register: tree full") (fun () ->
      ignore (Ra.register ra (fresh_fp ())))

let test_ra_wrong_path_rejected () =
  let ra = Ra.create ~depth:3 () in
  let pk = fresh_fp () in
  let i = Ra.register ra pk in
  let _ = Ra.register ra (fresh_fp ()) in
  let path = Ra.path ra i in
  path.(1) <- fresh_fp ();
  Alcotest.(check bool) "corrupted path" false
    (Ra.verify_path ~root:(Ra.root ra) ~leaf:pk ~index:i path)

(* --- CPLA correctness --- *)

let test_auth_verifies () =
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message in
  Alcotest.(check bool) "valid attestation" true
    (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) att)

let test_verify_wrong_context () =
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message in
  let root = Ra.root ra in
  Alcotest.(check bool) "wrong prefix" false
    (Cpla.verify params ~prefix:(fresh_fp ()) ~message ~root att);
  Alcotest.(check bool) "wrong message" false
    (Cpla.verify params ~prefix ~message:(fresh_fp ()) ~root att);
  Alcotest.(check bool) "wrong root" false
    (Cpla.verify params ~prefix ~message ~root:(fresh_fp ()) att)

let test_unregistered_cannot_authenticate () =
  (* Mallory holds a key the RA never registered; her path cannot match the
     root, so her attestation must be rejected (unforgeability). *)
  let params, ra, _, _ = Lazy.force fixture in
  let mallory = Cpla.keygen_rng ~rng:src () in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att =
    Cpla.auth_rng ~rng:src params ~prefix ~message ~key:mallory ~index:3
      ~path:(Ra.path ra 3) ~root:(Ra.root ra)
  in
  Alcotest.(check bool) "forged certificate rejected" false
    (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) att)

let test_stolen_tags_rejected () =
  (* Replaying someone's tags with a different message fails: t2 binds m. *)
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  Alcotest.(check bool) "replay under new message" false
    (Cpla.verify params ~prefix ~message:(fresh_fp ()) ~root:(Ra.root ra) att)

(* --- Linkability --- *)

let test_same_prefix_links () =
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () in
  let a1 = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  let a2 = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  Alcotest.(check bool) "double-auth linked" true (Cpla.link a1 a2)

let test_different_prefix_unlinkable_tags () =
  let params, ra, alice, _ = Lazy.force fixture in
  let a1 = auth_as params ra alice ~prefix:(fresh_fp ()) ~message:(fresh_fp ()) in
  let a2 = auth_as params ra alice ~prefix:(fresh_fp ()) ~message:(fresh_fp ()) in
  Alcotest.(check bool) "cross-task unlinkable" false (Cpla.link a1 a2)

let test_different_users_unlinked () =
  let params, ra, alice, bob = Lazy.force fixture in
  let prefix = fresh_fp () in
  let a1 = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  let a2 = auth_as params ra bob ~prefix ~message:(fresh_fp ()) in
  Alcotest.(check bool) "distinct users not linked" false (Cpla.link a1 a2)

let test_tag_determinism () =
  (* t1 depends only on (prefix, sk): two attestations by the same user on
     the same prefix have identical t1 but different proofs (ZK blinding). *)
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () in
  let a1 = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  let a2 = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  Alcotest.check fp "same t1" a1.Cpla.t1 a2.Cpla.t1;
  Alcotest.(check bool) "different proofs" false
    (Zebra_snark.Snark.equal_proof a1.Cpla.proof a2.Cpla.proof)

let test_tag_tampering_rejected () =
  (* Definition 1's game: with one certificate an adversary cannot produce
     two same-prefix attestations that fail to link.  The only way out
     would be to alter t1 -- but t1 is a public input of the proof. *)
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message in
  let forged = { att with Cpla.t1 = fresh_fp () } in
  Alcotest.(check bool) "fresh t1 breaks the proof" false
    (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) forged);
  let forged2 = { att with Cpla.t2 = fresh_fp () } in
  Alcotest.(check bool) "fresh t2 breaks the proof" false
    (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) forged2)

(* --- Anonymity-flavoured checks --- *)

let test_attestation_hides_identity () =
  (* The attestation reveals neither pk nor sk: its tags look like fresh
     field elements; here we check they differ from pk/sk and from the tags
     under another prefix (the full indistinguishability argument rests on
     the hash; the cryptographic game is Definition 2 in the paper). *)
  let params, ra, ((key, _) as alice), _ = Lazy.force fixture in
  let prefix = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message:(fresh_fp ()) in
  Alcotest.(check bool) "t1 <> pk" false (Fp.equal att.Cpla.t1 key.Cpla.pk);
  Alcotest.(check bool) "t1 <> sk" false (Fp.equal att.Cpla.t1 key.Cpla.sk);
  Alcotest.(check bool) "t2 <> pk" false (Fp.equal att.Cpla.t2 key.Cpla.pk)

let test_registration_after_auth_breaks_old_root () =
  (* Paths are valid per root snapshot: after another registration the old
     attestation stays valid under the old root but not under the new one,
     so verifiers must pin the root (task contracts snapshot it). *)
  let params = setup ~depth () in
  let ra = Ra.create ~depth () in
  let key = Cpla.keygen_rng ~rng:src () in
  let i = Ra.register ra key.Cpla.pk in
  let old_root = Ra.root ra in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att =
    Cpla.auth_rng ~rng:src params ~prefix ~message ~key ~index:i ~path:(Ra.path ra i)
      ~root:old_root
  in
  let _ = Ra.register ra (Cpla.keygen_rng ~rng:src ()).Cpla.pk in
  Alcotest.(check bool) "valid under old root" true
    (Cpla.verify params ~prefix ~message ~root:old_root att);
  Alcotest.(check bool) "invalid under new root" false
    (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) att)

(* --- Serialisation --- *)

let test_attestation_roundtrip () =
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message in
  let att' = Cpla.attestation_of_bytes (Cpla.attestation_to_bytes att) in
  Alcotest.(check bool) "roundtrip verifies" true
    (Cpla.verify params ~prefix ~message ~root:(Ra.root ra) att');
  Alcotest.check fp "t1 preserved" att.Cpla.t1 att'.Cpla.t1

let test_verify_with_serialized_vk () =
  let params, ra, alice, _ = Lazy.force fixture in
  let prefix = fresh_fp () and message = fresh_fp () in
  let att = auth_as params ra alice ~prefix ~message in
  let vk_bytes = Cpla.vk_to_bytes params in
  Alcotest.(check bool) "on-chain style verify" true
    (Cpla.verify_with_vk ~vk_bytes ~prefix ~message ~root:(Ra.root ra) att);
  Alcotest.(check bool) "garbage vk" false
    (Cpla.verify_with_vk ~vk_bytes:(Bytes.of_string "junk") ~prefix ~message
       ~root:(Ra.root ra) att)

let test_attestation_size_constant () =
  let params, ra, alice, bob = Lazy.force fixture in
  let s1 =
    Cpla.attestation_size_bytes (auth_as params ra alice ~prefix:(fresh_fp ()) ~message:(fresh_fp ()))
  in
  let s2 =
    Cpla.attestation_size_bytes (auth_as params ra bob ~prefix:(fresh_fp ()) ~message:(fresh_fp ()))
  in
  Alcotest.(check int) "constant size" s1 s2

(* --- hash composition arms --- *)

(* One trusted setup per arm at a small depth, shared across the tests. *)
let arm_depth = 3

let arm_fixture =
  lazy
    (List.map
       (fun composition ->
         (composition, setup ~composition ~depth:arm_depth ()))
       Hc.all)

let test_composition_accessors () =
  Alcotest.(check int) "two arms" 2 (List.length Hc.all);
  List.iter
    (fun (composition, params) ->
      Alcotest.(check string) "params record their arm" (Hc.to_string composition)
        (Hc.to_string (Cpla.composition params));
      Alcotest.(check int) "depth" arm_depth (Cpla.depth params);
      let ra = Ra.create ~hash:composition ~depth:arm_depth () in
      Alcotest.(check string) "ra records its arm" (Hc.to_string composition)
        (Hc.to_string (Ra.hash_composition ra)))
    (Lazy.force arm_fixture);
  (* The default arm is Poseidon, and the two arms synthesise different
     circuits (the ablation is real). *)
  Alcotest.(check string) "default is poseidon" "poseidon" (Hc.to_string Hc.default);
  (* At this shallow fixture depth the composition-independent parts of the
     circuit dominate, so we only lock the ordering here.  At the deployed
     depths both arms' exact constraint counts (a 2.58x gap at depth 16)
     are rows of BENCH_lint.json, which check.sh's `bench check lint`
     compares. *)
  let size comp = Cpla.circuit_size (List.assoc comp (Lazy.force arm_fixture)) in
  Alcotest.(check bool) "poseidon circuit is smaller" true
    (size Hc.Poseidon < size Hc.Mimc)

(* The same CPLA statement proves and verifies under either composition,
   and a tampered Merkle path is rejected by both — the in-circuit path
   check really binds to the arm's hash. *)
let prop_both_arms_verify_and_reject_tamper =
  qtest "both arms verify; tampered path rejected" ~count:3
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      List.for_all
        (fun (composition, params) ->
          let r = Zebra_rng.Chacha20.create ~seed:(Printf.sprintf "arm-%d" seed) in
          let rb n = Zebra_rng.Chacha20.bytes r n in
          let src = Zebra_rng.Source.of_chacha r in
          let ra = Ra.create ~hash:composition ~depth:arm_depth () in
          let key = Cpla.keygen_rng ~composition ~rng:src () in
          let index = Ra.register ra key.Cpla.pk in
          let prefix = Fp.random rb and message = Fp.random rb in
          let path = Ra.path ra index in
          let root = Ra.root ra in
          let att =
            Cpla.auth_rng ~rng:src params ~prefix ~message ~key ~index ~path ~root
          in
          let ok = Cpla.verify params ~prefix ~message ~root att in
          let bad_path = Array.copy path in
          let j = seed mod Array.length bad_path in
          bad_path.(j) <- Fp.add bad_path.(j) Fp.one;
          let att' =
            Cpla.auth_rng ~rng:src params ~prefix ~message ~key ~index ~path:bad_path
              ~root
          in
          ok && not (Cpla.verify params ~prefix ~message ~root att'))
        (Lazy.force arm_fixture))

let () =
  Alcotest.run "anonauth"
    [
      ( "ra",
        [
          Alcotest.test_case "roots change" `Quick test_ra_tree_roots_change;
          Alcotest.test_case "paths verify" `Quick test_ra_paths_verify;
          Alcotest.test_case "duplicate refused" `Quick test_ra_duplicate_refused;
          Alcotest.test_case "capacity limit" `Quick test_ra_full;
          Alcotest.test_case "wrong path rejected" `Quick test_ra_wrong_path_rejected;
        ] );
      ( "cpla",
        [
          Alcotest.test_case "auth verifies" `Quick test_auth_verifies;
          Alcotest.test_case "wrong context rejected" `Quick test_verify_wrong_context;
          Alcotest.test_case "unregistered rejected" `Quick test_unregistered_cannot_authenticate;
          Alcotest.test_case "tag replay rejected" `Quick test_stolen_tags_rejected;
        ] );
      ( "linkability",
        [
          Alcotest.test_case "same prefix links" `Quick test_same_prefix_links;
          Alcotest.test_case "cross prefix unlinkable" `Quick test_different_prefix_unlinkable_tags;
          Alcotest.test_case "different users unlinked" `Quick test_different_users_unlinked;
          Alcotest.test_case "tag determinism + zk" `Quick test_tag_determinism;
          Alcotest.test_case "tag tampering rejected" `Quick test_tag_tampering_rejected;
        ] );
      ( "anonymity",
        [
          Alcotest.test_case "tags hide identity" `Quick test_attestation_hides_identity;
          Alcotest.test_case "root snapshots" `Quick test_registration_after_auth_breaks_old_root;
        ] );
      ( "serialisation",
        [
          Alcotest.test_case "attestation roundtrip" `Quick test_attestation_roundtrip;
          Alcotest.test_case "verify with vk bytes" `Quick test_verify_with_serialized_vk;
          Alcotest.test_case "constant size" `Quick test_attestation_size_constant;
        ] );
      ( "composition",
        [
          Alcotest.test_case "arm accessors" `Slow test_composition_accessors;
          prop_both_arms_verify_and_reject_tamper;
        ] );
    ]
