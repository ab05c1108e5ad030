(* The Domain pool: lifecycle, primitives, exception propagation, and the
   determinism contract — results bit-identical at every domain count. *)

open Zebra_field
module Parallel = Zebra_parallel.Parallel
module Pool = Parallel.Pool
module Snark = Zebra_snark.Snark
module Cs = Zebra_r1cs.Cs

let with_pool domains f =
  let p = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

(* --- lifecycle --- *)

let test_create_shutdown () =
  let p = Pool.create ~domains:4 in
  Alcotest.(check int) "domains" 4 (Pool.domains p);
  Pool.shutdown p;
  Pool.shutdown p;
  (* a dead pool still runs work, just sequentially *)
  let hits = ref 0 in
  Parallel.parallel_for ~pool:p ~min_chunk:1 8 (fun lo hi -> hits := !hits + (hi - lo));
  Alcotest.(check int) "runs after shutdown" 8 !hits

let test_clamping () =
  with_pool 0 (fun p -> Alcotest.(check int) "clamped up" 1 (Pool.domains p));
  with_pool 1000 (fun p -> Alcotest.(check int) "clamped down" 64 (Pool.domains p))

let test_parse_domains () =
  Alcotest.(check int) "int" 4 (Parallel.parse_domains "4");
  Alcotest.(check int) "trimmed" 2 (Parallel.parse_domains " 2 ");
  Alcotest.(check bool) "auto" true (Parallel.parse_domains "auto" >= 1);
  let rejects s =
    Alcotest.check_raises ("rejects " ^ s)
      (Invalid_argument "Parallel.parse_domains: expected a positive integer or \"auto\"")
      (fun () -> ignore (Parallel.parse_domains s))
  in
  rejects "0";
  rejects "-3";
  rejects "many"

(* --- primitives --- *)

let test_parallel_for () =
  with_pool 4 (fun p ->
      let n = 10_000 in
      let out = Array.make n 0 in
      Parallel.parallel_for ~pool:p ~min_chunk:64 n (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- i * i
          done);
      for i = 0 to n - 1 do
        if out.(i) <> i * i then Alcotest.failf "slot %d wrong" i
      done)

let test_map_reduce () =
  with_pool 4 (fun p ->
      let n = 12_345 in
      let sum =
        Parallel.map_reduce ~pool:p ~min_chunk:16 n
          ~map:(fun lo hi ->
            let s = ref 0 in
            for i = lo to hi - 1 do
              s := !s + i
            done;
            !s)
          ~reduce:( + ) 0
      in
      Alcotest.(check int) "gauss" (n * (n - 1) / 2) sum;
      Alcotest.(check int) "empty" 7
        (Parallel.map_reduce ~pool:p 0 ~map:(fun _ _ -> 1) ~reduce:( + ) 7))

let test_map_reduce_ordered () =
  (* A non-commutative reduce (list append) still comes out in chunk-index
     order: the fold happens on the caller over the ordered results. *)
  with_pool 4 (fun p ->
      let n = 1000 in
      let chunks =
        Parallel.map_reduce ~pool:p ~min_chunk:10 n
          ~map:(fun lo hi -> [ (lo, hi) ])
          ~reduce:( @ ) []
      in
      let rec contiguous expect = function
        | [] -> Alcotest.(check int) "covers range" n expect
        | (lo, hi) :: rest ->
          Alcotest.(check int) "contiguous" expect lo;
          contiguous hi rest
      in
      contiguous 0 chunks)

let test_exists () =
  with_pool 4 (fun p ->
      Alcotest.(check bool) "hit" true
        (Parallel.exists ~pool:p ~min_chunk:8 1000 (fun i -> i = 977));
      Alcotest.(check bool) "miss" false
        (Parallel.exists ~pool:p ~min_chunk:8 1000 (fun _ -> false));
      Alcotest.(check bool) "empty" false (Parallel.exists ~pool:p 0 (fun _ -> true)))

let test_both () =
  with_pool 2 (fun p ->
      let a, b = Parallel.both ~pool:p (fun () -> 6 * 7) (fun () -> "ok") in
      Alcotest.(check int) "left" 42 a;
      Alcotest.(check string) "right" "ok" b)

let test_nested_regions () =
  (* A parallel call from inside a running region must not deadlock; it
     falls back to the same sequential chunk walk. *)
  with_pool 4 (fun p ->
      let total = ref 0 in
      let m = Mutex.create () in
      Parallel.parallel_for ~pool:p ~min_chunk:1 4 (fun lo hi ->
          for _ = lo to hi - 1 do
            let s =
              Parallel.map_reduce ~pool:p ~min_chunk:1 10
                ~map:(fun l h -> h - l)
                ~reduce:( + ) 0
            in
            Mutex.lock m;
            total := !total + s;
            Mutex.unlock m
          done);
      Alcotest.(check int) "nested sums" 40 !total)

(* --- exceptions --- *)

let test_exception_propagation () =
  with_pool 4 (fun p ->
      (match
         Parallel.parallel_for ~pool:p ~min_chunk:1 64 (fun lo _ ->
             if lo >= 32 then failwith "boom")
       with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure m when m = "boom" -> ());
      (* the pool survives a failed region *)
      let sum =
        Parallel.map_reduce ~pool:p ~min_chunk:1 8 ~map:(fun lo hi -> hi - lo) ~reduce:( + ) 0
      in
      Alcotest.(check int) "reusable after failure" 8 sum;
      match Parallel.both ~pool:p (fun () -> failwith "left") (fun () -> 1) with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure m when m = "left" -> ())

(* --- determinism: bit-identical results at any domain count --- *)

(* 2^10 runs every stage on the calling domain; 2^14 fans the butterfly
   stages and pointwise passes out over the pool. *)
let fp_array_gen =
  QCheck.Gen.(
    oneofl [ 10; 14 ] >>= fun lg ->
    map
      (fun seeds -> Array.of_list (List.map Fp.of_int seeds))
      (list_size (return (1 lsl lg)) (int_bound max_int)))

let test_fft_determinism =
  QCheck.Test.make ~count:10 ~name:"fft identical at 1 vs 4 domains"
    (QCheck.make fp_array_gen) (fun a ->
      let saved = Parallel.default_domains () in
      Fun.protect
        ~finally:(fun () -> Parallel.set_default_domains saved)
        (fun () ->
          let dom = Fft.domain (Array.length a) in
          (* The forward output, the round trip, and the fused
             domain-to-coset transform of the forward output. *)
          let run nd =
            Parallel.set_default_domains nd;
            let v = Fp.Vec.of_array a in
            Fft.fft_vec dom v;
            let evals = Fp.Vec.to_array v in
            let coset = Fp.Vec.copy v in
            Fft.coset_of_evals_vec dom coset;
            Fft.ifft_vec dom v;
            (evals, Fp.Vec.to_array v, Fp.Vec.to_array coset)
          in
          let same = Array.for_all2 Fp.equal in
          let e1, r1, c1 = run 1 in
          let e4, r4, c4 = run 4 in
          same e1 e4 && same r1 r4 && same r1 a && same c1 c4))

let test_prove_determinism () =
  (* Same circuit, same RNG seed, different domain counts: the proofs must
     be byte-identical — randomness is all drawn on the calling domain and
     chunk grids are pool-independent. *)
  let cs =
    let cs = Cs.create () in
    let secret = Fp.of_int 1234567 in
    let digest = Zebra_mimc.Mimc.hash_list [ secret; secret ] in
    let pub = Cs.alloc_input cs digest in
    let s = Cs.alloc cs secret in
    let open Zebra_r1cs.Gadgets in
    let h = mimc_hash cs [ v s; v s ] in
    enforce_eq cs ~label:"digest" h (v pub);
    cs
  in
  let kp = Snark.setup_rng ~rng:(Zebra_rng.Source.of_seed "test-parallel-setup") cs in
  let saved = Parallel.default_domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_default_domains saved)
    (fun () ->
      let prove_at nd =
        Parallel.set_default_domains nd;
        Snark.prove_rng ~rng:(Zebra_rng.Source.of_seed "test-parallel-prove") kp.Snark.pk cs
      in
      let p1 = prove_at 1 in
      let p4 = prove_at 4 in
      Alcotest.(check bool) "proofs identical" true (Snark.equal_proof p1 p4);
      Alcotest.(check bool) "bytes identical" true
        (Bytes.equal (Snark.proof_to_bytes p1) (Snark.proof_to_bytes p4));
      Alcotest.(check bool) "verifies" true
        (Snark.verify kp.Snark.vk ~public_inputs:(Cs.public_inputs cs) p4))

(* Synthesis on every board kind is domain-safe: the Poseidon permutation
   template every board emits from is built once, before any domain runs,
   and only read after.  Depth-6 CPLA synthesised on both boards inside a
   4-domain region gives the sequential constraints and assignments. *)
let test_synthesis_determinism () =
  let run () =
    let synth make =
      let cs = make () in
      Zebra_anonauth.Cpla.synthesize_dummy ~depth:6 cs;
      cs
    in
    let cs = synth Cs.create and w = synth Cs.create_witness in
    (Cs.constraints cs, Cs.assignment cs, Cs.assignment w)
  in
  (* The domains run first: a template built on first use would then be
     built by several of them at once. *)
  let results = Array.make 8 None in
  with_pool 4 (fun p ->
      Parallel.parallel_for ~pool:p ~min_chunk:1 (Array.length results) (fun lo hi ->
          for i = lo to hi - 1 do
            results.(i) <- Some (run ())
          done));
  let constraints, on_cs, on_w = run () in
  (* [Fp.t] limbs are canonical, so structural equality is field equality. *)
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.failf "synthesis %d did not run" i
      | Some (c, a_cs, a_w) ->
        let check what ok = Alcotest.(check bool) (Printf.sprintf "synthesis %d: %s" i what) true ok in
        check "constraints" (c = constraints);
        check "constraint board" (a_cs = on_cs);
        check "witness board" (a_w = on_w))
    results

(* --- observability --- *)

let test_obs_counters () =
  let module Obs = Zebra_obs.Obs in
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      with_pool 4 (fun p ->
          Parallel.parallel_for ~pool:p ~min_chunk:1 16 (fun _ _ -> ()));
      let regions = Obs.Counter.value (Obs.Counter.make "parallel.regions") in
      let chunks = Obs.Counter.value (Obs.Counter.make "parallel.chunks") in
      Alcotest.(check bool) "regions counted" true (regions >= 1);
      Alcotest.(check bool) "chunks counted" true (chunks >= 16))

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create/shutdown" `Quick test_create_shutdown;
          Alcotest.test_case "clamping" `Quick test_clamping;
          Alcotest.test_case "parse_domains" `Quick test_parse_domains;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "parallel_for" `Quick test_parallel_for;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "map_reduce ordered" `Quick test_map_reduce_ordered;
          Alcotest.test_case "exists" `Quick test_exists;
          Alcotest.test_case "both" `Quick test_both;
          Alcotest.test_case "nested regions" `Quick test_nested_regions;
          Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_fft_determinism;
          Alcotest.test_case "prove identical across domains" `Slow test_prove_determinism;
          Alcotest.test_case "synthesis identical across domains" `Quick
            test_synthesis_determinism;
        ] );
      ("obs", [ Alcotest.test_case "counters" `Quick test_obs_counters ]);
    ]
