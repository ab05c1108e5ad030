module Codec = Zebra_codec.Codec
module Obs = Zebra_obs.Obs
module Source = Zebra_rng.Source
module Parallel = Zebra_parallel.Parallel
module Secret = Zebra_secret.Secret

(* Field multiplications per chunk below which fanning out is a loss. *)
let par_min_ops = 1 lsl 10

(* [| f 0; ...; f (n-1) |] with chunks evaluated on the pool.  Every index
   is written exactly once, so this is observably Array.init. *)
let par_init n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    Parallel.parallel_for ~min_chunk:par_min_ops n (fun lo hi ->
        for i = lo to hi - 1 do
          if i > 0 then out.(i) <- f i
        done);
    out
  end

(* Sparse kernels.  A [sparse_vec] keeps only the aux-wire entries of a
   prover table whose QAP evaluation is nonzero; a [csr] is the classic
   compressed-sparse-row encoding of one R1CS matrix.  Both are built once
   per keypair at setup, so [prove] costs track nonzeros rather than
   wire-count x constraint-count.  Dropping exact-zero terms and reordering
   chunk partial sums never changes a result: field addition is exact and
   the Montgomery representation canonical. *)
type sparse_vec = { sv_idx : int array; sv_val : Fp.t array }

(* [coef_cls] classifies each coefficient (+1 / -1 / generic, see
   {!Fp.classify_coefs}) so the prover's row dot products can bucket
   the dominant +-1 terms into pure limb additions.  It is derived from
   [coefs] at setup. *)
type csr = { row_ptr : int array; col_idx : int array; coefs : Fp.t array; coef_cls : Bytes.t }

type proving_key = {
  p_domain : Fft.domain;
  p_num_inputs : int;
  p_num_vars : int;
  p_num_constraints : int;
  aux_a : sparse_vec; (* nonzero A_i(s) over aux wires *)
  aux_b : sparse_vec;
  aux_c : sparse_vec;
  aux_a_alpha : sparse_vec;
  aux_b_alpha : sparse_vec;
  aux_c_alpha : sparse_vec;
  aux_k : sparse_vec; (* beta (A_i + B_i + C_i)(s) over aux wires *)
  mat_a : csr; (* constraint matrices, for the per-proof evaluations *)
  mat_b : csr;
  mat_c : csr;
  io_a : Fp.t array; (* A_i(s), B_i(s) over the constant and input wires *)
  io_b : Fp.t array;
  h_query : Fp.Vec.t; (* the coset's Lagrange basis at s over Z(g) *)
  z_s : Fp.t;
  z_alpha_a : Fp.t;
  z_alpha_b : Fp.t;
  z_alpha_c : Fp.t;
  z_beta : Fp.t;
}

type verifying_key = {
  v_num_inputs : int;
  alpha_a : Fp.t;
  alpha_b : Fp.t;
  alpha_c : Fp.t;
  beta : Fp.t;
  v_z_s : Fp.t;
  io_a : Fp.t array; (* indices 0 .. num_inputs; slot 0 is the constant wire *)
  io_b : Fp.t array;
  io_c : Fp.t array;
}

(* The toxic-waste secret s lives in a [Secret] box: the type system makes
   every read explicit, and the ZL2xx lint scans all persisted encodings
   for its canary bytes (the PR 5 leak regression lock). *)
type trapdoor = { t_s : Fp.t Secret.t; t_vk : verifying_key }

type proof = {
  pi_a : Fp.t;
  pi_a' : Fp.t;
  pi_b : Fp.t;
  pi_b' : Fp.t;
  pi_c : Fp.t;
  pi_c' : Fp.t;
  pi_k : Fp.t;
  pi_h : Fp.t;
}

type keypair = { pk : proving_key; vk : verifying_key; trapdoor : trapdoor }

(* Canary projection for the ZL2xx secret-flow lint: the boxed t_s as
   minimal big-endian bytes (leading zero bytes stripped, so a leak through
   a minimal-length encoding matches too).  If they ever show up in a vk
   encoding, a store entry, an obs export or a log line, the trapdoor
   leaked (exactly the PR 5 incident). *)
let trapdoor_canary kp =
  Secret.use kp.trapdoor.t_s (fun s ->
      let b = Fp.to_bytes_be s in
      let n = Bytes.length b in
      let i = ref 0 in
      while !i < n && Bytes.get b !i = '\x00' do
        incr i
      done;
      Bytes.sub b !i (n - !i))

let c_h_muls = Obs.Counter.make "snark.prove.h_muls"
let g_sparse_mat_nnz = Obs.Gauge.make "snark.sparse.mat_nnz"
let g_sparse_aux_nnz = Obs.Gauge.make "snark.sparse.aux_nnz"

(* One matrix of the system as CSR, zero coefficients dropped, term order
   preserved (insertion order per row). *)
let csr_of_cs cs select =
  let n = Cs.num_constraints cs in
  let row_ptr = Array.make (n + 1) 0 in
  Cs.iter_constraints cs (fun ~index ~label:_ a b c ->
      let k =
        List.fold_left
          (fun acc (coeff, _) -> if Fp.is_zero coeff then acc else acc + 1)
          0 (select a b c)
      in
      row_ptr.(index + 1) <- k);
  for i = 1 to n do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let nnz = row_ptr.(n) in
  let col_idx = Array.make nnz 0 in
  let coefs = Array.make nnz Fp.zero in
  Cs.iter_constraints cs (fun ~index ~label:_ a b c ->
      let pos = ref row_ptr.(index) in
      List.iter
        (fun (coeff, var) ->
          if not (Fp.is_zero coeff) then begin
            col_idx.(!pos) <- Cs.int_of_var var;
            coefs.(!pos) <- coeff;
            incr pos
          end)
        (select a b c));
  { row_ptr; col_idx; coefs; coef_cls = Fp.classify_coefs coefs }

let csr_nnz m = Array.length m.coefs

(* Entries of the flat vector [v] at indices >= lo with nonzero value,
   as index/value parallel arrays (values copied out as fresh
   elements — the sparse table outlives the setup's scratch vector). *)
let sparse_of_vec ~lo (v : Fp.Vec.t) =
  let n = Fp.Vec.length v in
  let count = ref 0 in
  for i = lo to n - 1 do
    if not (Fp.Vec.is_zero v i) then incr count
  done;
  let sv_idx = Array.make !count 0 in
  let sv_val = Array.make !count Fp.zero in
  let pos = ref 0 in
  for i = lo to n - 1 do
    if not (Fp.Vec.is_zero v i) then begin
      sv_idx.(!pos) <- i;
      sv_val.(!pos) <- Fp.Vec.get v i;
      incr pos
    end
  done;
  { sv_idx; sv_val }

let scale_vec factor v =
  { sv_idx = v.sv_idx; sv_val = par_init (Array.length v.sv_val) (fun k -> Fp.mul factor v.sv_val.(k)) }

(* The IO part of a QAP evaluation at s: [table.(0)] for the constant
   wire plus [sum_i x_i table.(i + 1)] over the public inputs.  The
   prover and the verifier take the same sum. *)
let io_sum table inputs =
  let acc = ref table.(0) in
  Array.iteri (fun i x -> acc := Fp.add !acc (Fp.mul x table.(i + 1))) inputs;
  !acc

(* The secret point is the first field element drawn from the setup
   randomness that lies outside the domain and its coset (s^d <> 1 and
   s^d <> g^d), so both Lagrange evaluations are well defined. *)
let sample_secret_point ~random_bytes domain =
  let on_coset = Fft.vanishing_on_coset domain in
  let rec go () =
    let s = Fp.random random_bytes in
    let z = Fft.vanishing_at domain s in
    if Fp.is_zero z || Fp.equal z on_coset then go () else s
  in
  go ()

let setup_rng ~rng cs =
  Obs.with_span "snark.setup" @@ fun () ->
  let random_bytes = Source.fn rng in
  let n_constraints = Cs.num_constraints cs in
  let n_vars = Cs.num_vars cs in
  let n_inputs = Cs.num_inputs cs in
  let domain = Fft.domain (max 2 n_constraints) in
  let s = sample_secret_point ~random_bytes domain in
  let alpha_a = Fp.random random_bytes in
  let alpha_b = Fp.random random_bytes in
  let alpha_c = Fp.random random_bytes in
  let beta = Fp.random random_bytes in
  let mat_a = csr_of_cs cs (fun a _ _ -> a) in
  let mat_b = csr_of_cs cs (fun _ b _ -> b) in
  let mat_c = csr_of_cs cs (fun _ _ c -> c) in
  let a_s = Fp.Vec.create n_vars in
  let b_s = Fp.Vec.create n_vars in
  let c_s = Fp.Vec.create n_vars in
  Obs.with_span "snark.setup.qap" (fun () ->
      let lag = Fft.lagrange_at domain s in
      (* Scatter-accumulate into the flat wire tables; +-1 coefficients
         (the bulk of R1CS rows) are pure limb additions, the generic
         bucket stages its product through one scratch element.  Exact
         field arithmetic: same values as the boxed add/mul chain. *)
      let tmp = Fp.buffer () in
      let accumulate (dst : Fp.Vec.t) (m : csr) =
        for j = 0 to n_constraints - 1 do
          for k = m.row_ptr.(j) to m.row_ptr.(j + 1) - 1 do
            let i = m.col_idx.(k) in
            match Bytes.unsafe_get m.coef_cls k with
            | '\001' -> Fp.Vec.add_slots dst i dst i lag j
            | '\002' -> Fp.Vec.sub_slots dst i dst i lag j
            | _ ->
                Fp.Vec.mul_elt_into ~dst:tmp lag j m.coefs.(k);
                Fp.Vec.add_slot_elt dst i tmp
          done
        done
      in
      accumulate a_s mat_a;
      accumulate b_s mat_b;
      accumulate c_s mat_c);
  let h_query = Obs.with_span "snark.setup.query" (fun () -> Fft.coset_query domain s) in
  let z_s = Fft.vanishing_at domain s in
  let aux_lo = n_inputs + 1 in
  let aux_a = sparse_of_vec ~lo:aux_lo a_s in
  let aux_b = sparse_of_vec ~lo:aux_lo b_s in
  let aux_c = sparse_of_vec ~lo:aux_lo c_s in
  (* k_s.(i) = (a_s.(i) + b_s.(i)) + c_s.(i), slot-wise in place. *)
  let k_s = Fp.Vec.create n_vars in
  Parallel.parallel_for ~min_chunk:par_min_ops n_vars (fun lo hi ->
      for i = lo to hi - 1 do
        Fp.Vec.add_slots k_s i a_s i b_s i;
        Fp.Vec.add_slots k_s i k_s i c_s i
      done);
  let aux_k = scale_vec beta (sparse_of_vec ~lo:aux_lo k_s) in
  if Obs.enabled () then begin
    Obs.Gauge.set g_sparse_mat_nnz
      (float_of_int (csr_nnz mat_a + csr_nnz mat_b + csr_nnz mat_c));
    Obs.Gauge.set g_sparse_aux_nnz
      (float_of_int
         (Array.length aux_a.sv_idx + Array.length aux_b.sv_idx + Array.length aux_c.sv_idx))
  end;
  let slice v = Array.init (n_inputs + 1) (Fp.Vec.get v) in
  let io_a = slice a_s and io_b = slice b_s in
  let pk =
    {
      p_domain = domain;
      p_num_inputs = n_inputs;
      p_num_vars = n_vars;
      p_num_constraints = n_constraints;
      aux_a;
      aux_b;
      aux_c;
      aux_a_alpha = scale_vec alpha_a aux_a;
      aux_b_alpha = scale_vec alpha_b aux_b;
      aux_c_alpha = scale_vec alpha_c aux_c;
      aux_k;
      mat_a;
      mat_b;
      mat_c;
      io_a;
      io_b;
      h_query;
      z_s;
      z_alpha_a = Fp.mul alpha_a z_s;
      z_alpha_b = Fp.mul alpha_b z_s;
      z_alpha_c = Fp.mul alpha_c z_s;
      z_beta = Fp.mul beta z_s;
    }
  in
  let vk =
    {
      v_num_inputs = n_inputs;
      alpha_a;
      alpha_b;
      alpha_c;
      beta;
      v_z_s = z_s;
      io_a;
      io_b;
      io_c = slice c_s;
    }
  in
  { pk; vk; trapdoor = { t_s = Secret.make ~label:"snark.trapdoor.t_s" s; t_vk = vk } }

let prove_rng ~rng pk cs =
  if
    Cs.num_vars cs <> pk.p_num_vars
    || Cs.num_inputs cs <> pk.p_num_inputs
    || Cs.num_constraints cs <> pk.p_num_constraints
  then invalid_arg "Snark.prove_rng: circuit shape mismatch with proving key";
  Obs.with_span "snark.prove" @@ fun () ->
  let random_bytes = Source.fn rng in
  let w = Cs.assignment cs in
  let d = Fft.size pk.p_domain in
  let delta1 = Fp.random random_bytes in
  let delta2 = Fp.random random_bytes in
  let delta3 = Fp.random random_bytes in
  (* Aux-only sums at s (the verifier reconstructs the IO part), over the
     keypair's sparse tables.  Chunk partial sums fold in chunk-index
     order; field addition is exact, so the result is the canonical value
     either way. *)
  let aux_sum vec =
    Parallel.map_reduce ~min_chunk:par_min_ops (Array.length vec.sv_idx)
      ~map:(fun lo hi ->
        (* Chunk-owned accumulator and product scratch: zero allocation
           per term.  Boolean wires (w.(i) = 1, very common) skip the
           multiplication entirely — exact: 1 * v = v. *)
        let acc = Fp.buffer () in
        let tmp = Fp.buffer () in
        for k = lo to hi - 1 do
          let wi = w.(vec.sv_idx.(k)) in
          if not (Fp.is_zero wi) then
            if Fp.is_one wi then Fp.add_into ~dst:acc acc vec.sv_val.(k)
            else begin
              Fp.mul_into ~dst:tmp wi vec.sv_val.(k);
              Fp.add_into ~dst:acc acc tmp
            end
        done;
        acc)
      ~reduce:Fp.add Fp.zero
  in
  (* The aux parts of A(s) and B(s) are also pi_h's blinding terms. *)
  let a_aux, b_aux, pi_a, pi_b, pi_c, pi_a', pi_b', pi_c', pi_k =
    Obs.with_span "snark.prove.exp" (fun () ->
        let a_aux = aux_sum pk.aux_a and b_aux = aux_sum pk.aux_b in
        let pi_a = Fp.add a_aux (Fp.mul delta1 pk.z_s) in
        let pi_b = Fp.add b_aux (Fp.mul delta2 pk.z_s) in
        let pi_c = Fp.add (aux_sum pk.aux_c) (Fp.mul delta3 pk.z_s) in
        let pi_a' = Fp.add (aux_sum pk.aux_a_alpha) (Fp.mul delta1 pk.z_alpha_a) in
        let pi_b' = Fp.add (aux_sum pk.aux_b_alpha) (Fp.mul delta2 pk.z_alpha_b) in
        let pi_c' = Fp.add (aux_sum pk.aux_c_alpha) (Fp.mul delta3 pk.z_alpha_c) in
        let pi_k =
          Fp.add (aux_sum pk.aux_k) (Fp.mul (Fp.add (Fp.add delta1 delta2) delta3) pk.z_beta)
        in
        (a_aux, b_aux, pi_a, pi_b, pi_c, pi_a', pi_b', pi_c', pi_k))
  in
  (* A, B, C on the domain: the full (IO + aux) witness combinations, one
     CSR row dot product per constraint. *)
  let evals_of (m : csr) =
    (* Constraint j writes only slot j: rows are independent.  One flat
       vector per matrix; each chunk owns a dot-product scratch, and
       the row sums bucket +-1 coefficients into limb additions. *)
    let arr = Fp.Vec.create d in
    Parallel.parallel_for ~min_chunk:256 pk.p_num_constraints (fun lo hi ->
        let scratch = Fp.dot_scratch () in
        let acc = Fp.buffer () in
        for j = lo to hi - 1 do
          Fp.set_zero acc;
          Fp.dot_sparse_acc ~scratch ~acc ~cls:m.coef_cls ~coefs:m.coefs ~idx:m.col_idx ~w
            ~lo:m.row_ptr.(j) ~hi:m.row_ptr.(j + 1);
          Fp.Vec.set arr j acc
        done);
    arr
  in
  let a_evals, b_evals, c_evals =
    Obs.with_span "snark.prove.eval" (fun () ->
        (evals_of pk.mat_a, evals_of pk.mat_b, evals_of pk.mat_c))
  in
  (* The same polynomials on the coset, where Z is the constant Z(g). *)
  Obs.with_span "snark.prove.fft" (fun () ->
      Fft.coset_of_evals_vec pk.p_domain a_evals;
      Fft.coset_of_evals_vec pk.p_domain b_evals;
      Fft.coset_of_evals_vec pk.p_domain c_evals);
  (* Blinding:
     (A + d1 Z)(B + d2 Z) - (C + d3 Z) = Z (H + d1 B + d2 A + d1 d2 Z - d3),
     so pi_h is that bracket at s.  H = (A B - C) / Z has degree < d and
     the values (a_j b_j - c_j) / Z(g) on the coset, so H(s) is one pass
     against the coset query; A(s) and B(s) are the IO parts plus the aux
     sums above.  Field arithmetic is exact, so this is the element that
     H's coefficients against the powers of s would give, on any board. *)
  let pi_h =
    Obs.with_span "snark.prove.exp" (fun () ->
        let h_s =
          Parallel.map_reduce ~min_chunk:par_min_ops d
            ~map:(fun lo hi ->
              let acc = Fp.buffer () in
              let num = Fp.buffer () in
              let tmp = Fp.buffer () in
              for j = lo to hi - 1 do
                Fp.Vec.mul_into_elt ~dst:num a_evals j b_evals j;
                Fp.Vec.sub_elt_into ~dst:num num c_evals j;
                Fp.Vec.mul_elt_into ~dst:tmp pk.h_query j num;
                Fp.add_into ~dst:acc acc tmp
              done;
              acc)
            ~reduce:Fp.add Fp.zero
        in
        if Obs.enabled () then Obs.Counter.add c_h_muls (2 * d);
        let inputs = Array.sub w 1 pk.p_num_inputs in
        let a_s = Fp.add (io_sum pk.io_a inputs) a_aux in
        let b_s = Fp.add (io_sum pk.io_b inputs) b_aux in
        let d1d2_z = Fp.mul (Fp.mul delta1 delta2) pk.z_s in
        Fp.add
          (Fp.add h_s (Fp.add (Fp.mul delta1 b_s) (Fp.mul delta2 a_s)))
          (Fp.sub d1d2_z delta3))
  in
  { pi_a; pi_a'; pi_b; pi_b'; pi_c; pi_c'; pi_k; pi_h }

(* Proving reads only the assignment and the counts, so the statement is
   synthesised on a witness board, which keeps no constraint. *)
let prove_synth_rng ~rng pk synth =
  let cs = Cs.create_witness () in
  Obs.with_span "snark.synthesize" (fun () -> synth cs);
  prove_rng ~rng pk cs

let io_part vk ~public_inputs table =
  if Array.length public_inputs <> vk.v_num_inputs then
    invalid_arg "Snark: wrong number of public inputs";
  io_sum table public_inputs

(* The five verification residuals of [p], each zero iff its check
   holds: divisibility (A·B − C − H·Z(s), the I/O parts folded into
   A, B and C), the three knowledge shifts and consistency. *)
let residuals vk ~public_inputs p =
  let total table x = Fp.add (io_part vk ~public_inputs table) x in
  let a_total = total vk.io_a p.pi_a in
  let b_total = total vk.io_b p.pi_b in
  let c_total = total vk.io_c p.pi_c in
  [|
    Fp.sub (Fp.sub (Fp.mul a_total b_total) c_total) (Fp.mul p.pi_h vk.v_z_s);
    Fp.sub p.pi_a' (Fp.mul vk.alpha_a p.pi_a);
    Fp.sub p.pi_b' (Fp.mul vk.alpha_b p.pi_b);
    Fp.sub p.pi_c' (Fp.mul vk.alpha_c p.pi_c);
    Fp.sub p.pi_k (Fp.mul vk.beta (Fp.add (Fp.add p.pi_a p.pi_b) p.pi_c));
  |]

let verify vk ~public_inputs proof =
  if Array.length public_inputs <> vk.v_num_inputs then false
  else
    Obs.with_span "snark.verify" @@ fun () ->
    Array.for_all Fp.is_zero (residuals vk ~public_inputs proof)

let simulate_rng ~rng trapdoor ~public_inputs =
  let random_bytes = Source.fn rng in
  let vk = trapdoor.t_vk in
  let pi_a = Fp.random random_bytes in
  let pi_b = Fp.random random_bytes in
  let pi_h = Fp.random random_bytes in
  ignore trapdoor.t_s;
  let with_c pi_c =
    {
      pi_a;
      pi_b;
      pi_c;
      pi_h;
      pi_a' = Fp.mul vk.alpha_a pi_a;
      pi_b' = Fp.mul vk.alpha_b pi_b;
      pi_c' = Fp.mul vk.alpha_c pi_c;
      pi_k = Fp.mul vk.beta (Fp.add (Fp.add pi_a pi_b) pi_c);
    }
  in
  (* Divisibility is linear in pi_c with coefficient -1, so its residual
     at pi_c = 0 is the pi_c that makes it vanish. *)
  with_c (residuals vk ~public_inputs (with_c Fp.zero)).(0)

let num_public_inputs vk = vk.v_num_inputs
let num_constraints pk = pk.p_num_constraints

let proof_to_bytes p =
  Codec.encode
    (fun w p ->
      List.iter (Fp.write w)
        [ p.pi_a; p.pi_a'; p.pi_b; p.pi_b'; p.pi_c; p.pi_c'; p.pi_k; p.pi_h ])
    p

let proof_of_bytes b =
  Codec.decode
    (fun r ->
      let pi_a = Fp.read r in
      let pi_a' = Fp.read r in
      let pi_b = Fp.read r in
      let pi_b' = Fp.read r in
      let pi_c = Fp.read r in
      let pi_c' = Fp.read r in
      let pi_k = Fp.read r in
      let pi_h = Fp.read r in
      { pi_a; pi_a'; pi_b; pi_b'; pi_c; pi_c'; pi_k; pi_h })
    b

let write_vk w vk =
  Codec.u32 w vk.v_num_inputs;
  List.iter (Fp.write w) [ vk.alpha_a; vk.alpha_b; vk.alpha_c; vk.beta; vk.v_z_s ];
  Codec.array w Fp.write vk.io_a;
  Codec.array w Fp.write vk.io_b;
  Codec.array w Fp.write vk.io_c

let read_vk r =
  let v_num_inputs = Codec.read_u32 r in
  let alpha_a = Fp.read r in
  let alpha_b = Fp.read r in
  let alpha_c = Fp.read r in
  let beta = Fp.read r in
  let v_z_s = Fp.read r in
  let io_a = Codec.read_array r Fp.read in
  let io_b = Codec.read_array r Fp.read in
  let io_c = Codec.read_array r Fp.read in
  (* The verifier indexes every table by input, so a short one must not
     decode. *)
  if List.exists (fun t -> Array.length t <> v_num_inputs + 1) [ io_a; io_b; io_c ] then
    raise (Codec.Decode_error "vk: io table length mismatch");
  { v_num_inputs; alpha_a; alpha_b; alpha_c; beta; v_z_s; io_a; io_b; io_c }

let vk_to_bytes vk = Codec.encode write_vk vk
let vk_of_bytes b = Codec.decode read_vk b

(* --- decoded-VK cache ---

   Contracts and auditors hold verification keys as bytes ([auth_vk] /
   [reward_vk] in task parameters); decoding costs ~|vk| Montgomery
   conversions — comparable to a verification itself.  This bounded,
   mutex-guarded memo (keyed by the exact bytes) makes repeat decodes a
   hashtable hit.  Only successful decodes are cached.  A hit looks the
   caller's bytes up as they are; a miss stores a copy, so a caller that
   later mutates its buffer cannot change a key. *)

module Bytes_tbl = Hashtbl.Make (struct
  type t = bytes

  let equal = Bytes.equal
  let hash = Hashtbl.hash
end)

let vk_cache_capacity = 64
let vk_cache : verifying_key Bytes_tbl.t = Bytes_tbl.create 16
let vk_cache_mutex = Mutex.create ()
let m_vk_hits = Obs.Counter.make "snark.cache.vk.hits"
let m_vk_decodes = Obs.Counter.make "snark.cache.vk.decodes"

let vk_of_bytes_cached b =
  Mutex.lock vk_cache_mutex;
  let cached = Bytes_tbl.find_opt vk_cache b in
  Mutex.unlock vk_cache_mutex;
  match cached with
  | Some vk ->
    Obs.Counter.incr m_vk_hits;
    vk
  | None ->
    let vk = vk_of_bytes b in
    Obs.Counter.incr m_vk_decodes;
    Mutex.lock vk_cache_mutex;
    if Bytes_tbl.length vk_cache >= vk_cache_capacity then Bytes_tbl.reset vk_cache;
    Bytes_tbl.replace vk_cache (Bytes.copy b) vk;
    Mutex.unlock vk_cache_mutex;
    vk

let verify_vk_bytes ~vk_bytes ~public_inputs proof =
  match vk_of_bytes_cached vk_bytes with
  | vk -> verify vk ~public_inputs proof
  | exception Codec.Decode_error _ -> false

let proof_size_bytes p = Bytes.length (proof_to_bytes p)

let equal_proof p q =
  Fp.equal p.pi_a q.pi_a && Fp.equal p.pi_a' q.pi_a' && Fp.equal p.pi_b q.pi_b
  && Fp.equal p.pi_b' q.pi_b' && Fp.equal p.pi_c q.pi_c && Fp.equal p.pi_c' q.pi_c'
  && Fp.equal p.pi_k q.pi_k && Fp.equal p.pi_h q.pi_h

(* --- named keypair memo --- *)

module Keycache = struct
  type t = { table : (string * string, keypair) Hashtbl.t; mutex : Mutex.t }

  let m_hits = Obs.Counter.make "snark.cache.hits"
  let m_misses = Obs.Counter.make "snark.cache.misses"

  let create () = { table = Hashtbl.create 8; mutex = Mutex.create () }

  (* The setup runs on randomness derived from [seed] alone, so a hit
     returns exactly the keypair a fresh setup would have produced.  Two
     racing misses both run the setup and store the same keypair. *)
  let setup_named c ~circuit_id ~seed synth =
    let key = (circuit_id, seed) in
    Mutex.lock c.mutex;
    let found = Hashtbl.find_opt c.table key in
    Mutex.unlock c.mutex;
    match found with
    | Some kp ->
      Obs.Counter.incr m_hits;
      kp
    | None ->
      Obs.Counter.incr m_misses;
      let cs = Cs.create () in
      synth cs;
      let kp = setup_rng ~rng:(Source.of_seed seed) cs in
      Mutex.lock c.mutex;
      Hashtbl.replace c.table key kp;
      Mutex.unlock c.mutex;
      kp
end
