module Parallel = Zebra_parallel.Parallel

(* Butterflies (resp. pointwise multiplications) per chunk below which a
   stage is not worth fanning out.  Thresholds gate only *where* the work
   runs: chunk grids are pool-independent and every chunk owns a disjoint
   index range, so results are bit-identical at any ZEBRA_DOMAINS. *)
let par_min_butterflies = 1 lsl 12
let par_min_pointwise = 1 lsl 13

(* A domain carries precomputed power tables, built eagerly at creation:
   - [tw] / [tw_inv]: omega^i (resp. omega^-i) for i < size/2, shared by
     every butterfly stage via stride indexing — without them each
     butterfly pays an extra multiplication stepping its twiddle.
   - [coset_pows]: g^i for i < size (coset_fft input scaling).
   - [coset_unscale]: size_inv * g^-i (coset_ifft output scaling with the
     inverse-NTT 1/n factor folded in — field multiplication is exact and
     associative, so folding changes no output byte).
   Tables hold the exact values the replaced running products computed, so
   results are limb-identical to the table-free code path.  A domain is
   immutable after [domain] returns, so one domain (e.g. inside a cached
   keypair) is safe to read from any number of OCaml domains at once. *)
type domain = {
  log_size : int;
  size : int;
  omega : Fp.t;
  omega_inv : Fp.t;
  size_inv : Fp.t;
  tw : Fp.t array;
  tw_inv : Fp.t array;
  coset_pows : Fp.t array;
  coset_unscale : Fp.t array;
}

let coset_shift = Fp.generator

(* [| init; init*base; ...; init*base^(n-1) |].  Each chunk re-seeds its
   running power with the fixed-base table, so the result is independent of
   the chunk grid (and of ZEBRA_DOMAINS). *)
let power_table ?(init = Fp.one) base n =
  if n = 0 then [||]
  else begin
    let t = Array.make n init in
    let fb = Fp.fixed_base base in
    Parallel.parallel_for ~min_chunk:par_min_pointwise n (fun lo hi ->
        let p = ref (Fp.mul init (Fp.fixed_base_pow fb lo)) in
        for i = lo to hi - 1 do
          t.(i) <- !p;
          p := Fp.mul !p base
        done);
    t
  end

let domain n =
  if n <= 0 then invalid_arg "Fft.domain: need positive size";
  let rec log2_ceil k acc = if 1 lsl acc >= k then acc else log2_ceil k (acc + 1) in
  let log_size = log2_ceil n 0 in
  if log_size > Fp.two_adicity then invalid_arg "Fft.domain: exceeds field 2-adicity";
  let size = 1 lsl log_size in
  let omega = Fp.root_of_unity log_size in
  let omega_inv = Fp.inv omega in
  let size_inv = Fp.inv (Fp.of_int size) in
  {
    log_size;
    size;
    omega;
    omega_inv;
    size_inv;
    tw = power_table omega (size / 2);
    tw_inv = power_table omega_inv (size / 2);
    coset_pows = power_table coset_shift size;
    coset_unscale = power_table ~init:size_inv (Fp.inv coset_shift) size;
  }

let size d = d.size
let omega d = d.omega
let element d i = Fp.pow_int d.omega i

(* The transforms run natively on flat {!Fp.Vec} limb vectors: one
   contiguous buffer per polynomial, slots rewritten in place through
   per-chunk scratch elements, zero allocation per butterfly.  Scratch
   buffers are created inside each parallel chunk body, so they are
   per-OCaml-domain by construction; Montgomery arithmetic is exact and
   canonical, so every result limb is the same at any ZEBRA_DOMAINS
   (DESIGN.md, "Field kernel discipline"). *)

let bit_reverse_permute_vec v =
  let n = Fp.Vec.length v in
  let log_n =
    let rec go k acc = if 1 lsl acc = k then acc else go k (acc + 1) in
    go n 0
  in
  for i = 0 to n - 1 do
    let j =
      let r = ref 0 in
      for b = 0 to log_n - 1 do
        if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (log_n - 1 - b))
      done;
      !r
    in
    if j > i then Fp.Vec.swap v i j
  done

(* [tw] holds root^i for i < n/2; the stage with block size [blk] reads its
   twiddle w_len^j = root^(j * n/blk) at stride n/blk.  One shared table
   replaces the per-butterfly running product (halving the multiplication
   count) and makes chunk boundaries trivially grid-independent. *)
let ntt_in_place_vec v tw =
  let n = Fp.Vec.length v in
  bit_reverse_permute_vec v;
  let len = ref 2 in
  while !len <= n do
    let blk = !len in
    let half = blk / 2 in
    let stride = n / blk in
    (* One block's butterflies over j in [jlo, jhi).  Writes touch only
       slots base+j and base+j+half; [tmp] is the chunk's scratch. *)
    let butterflies tmp base jlo jhi =
      for j = jlo to jhi - 1 do
        Fp.Vec.butterfly ~tmp v (base + j) (base + j + half) tw.(j * stride)
      done
    in
    if half >= par_min_butterflies then begin
      (* Late stages: a few large blocks — split each block's j-range. *)
      let base = ref 0 in
      while !base < n do
        let b = !base in
        Parallel.parallel_for ~min_chunk:par_min_butterflies half (fun jlo jhi ->
            butterflies (Fp.buffer ()) b jlo jhi);
        base := b + blk
      done
    end
    else if n / 2 >= par_min_butterflies then
      (* Early stages: many small blocks — whole blocks per chunk. *)
      Parallel.parallel_for
        ~min_chunk:(max 1 (par_min_butterflies / half))
        (n / blk)
        (fun blo bhi ->
          let tmp = Fp.buffer () in
          for b = blo to bhi - 1 do
            butterflies tmp (b * blk) 0 half
          done)
    else begin
      let tmp = Fp.buffer () in
      let base = ref 0 in
      while !base < n do
        butterflies tmp !base 0 half;
        base := !base + blk
      done
    end;
    len := blk * 2
  done

let check_len_vec d v =
  if Fp.Vec.length v <> d.size then
    invalid_arg "Fft: vector length must equal domain size"

(* v.(i) <- v.(i) * t.(i), the pointwise pass both coset transforms use. *)
let scale_by_table_vec v t =
  Parallel.parallel_for ~min_chunk:par_min_pointwise (Fp.Vec.length v) (fun lo hi ->
      let tmp = Fp.buffer () in
      for i = lo to hi - 1 do
        Fp.Vec.mul_slot_elt ~tmp v i t.(i)
      done)

let fft_vec d v =
  check_len_vec d v;
  ntt_in_place_vec v d.tw

let ifft_vec d v =
  check_len_vec d v;
  ntt_in_place_vec v d.tw_inv;
  Parallel.parallel_for ~min_chunk:par_min_pointwise d.size (fun lo hi ->
      let tmp = Fp.buffer () in
      for i = lo to hi - 1 do
        Fp.Vec.mul_slot_elt ~tmp v i d.size_inv
      done)

let coset_fft_vec d v =
  check_len_vec d v;
  scale_by_table_vec v d.coset_pows;
  ntt_in_place_vec v d.tw

let coset_ifft_vec d v =
  check_len_vec d v;
  ntt_in_place_vec v d.tw_inv;
  (* One pass applies both the inverse-NTT 1/n factor and the coset
     unshift g^-i (folded table — see [coset_unscale]). *)
  scale_by_table_vec v d.coset_unscale

let vanishing_on_coset d = Fp.sub (Fp.pow_int coset_shift d.size) Fp.one
let vanishing_at d x = Fp.sub (Fp.pow_int x d.size) Fp.one

(* L_i(x) = Z(x) * omega^i / (size * (x - omega^i)) for x off-domain. *)
let lagrange_at d x =
  let n = d.size in
  let z = vanishing_at d x in
  if Fp.is_zero z then raise Division_by_zero;
  let denoms = Array.make n Fp.one in
  let wi = ref Fp.one in
  for i = 0 to n - 1 do
    denoms.(i) <- Fp.mul (Fp.of_int n) (Fp.sub x !wi);
    wi := Fp.mul !wi d.omega
  done;
  let inv_denoms = Fp.batch_inv denoms in
  let out = Array.make n Fp.zero in
  let wi = ref Fp.one in
  for i = 0 to n - 1 do
    out.(i) <- Fp.mul (Fp.mul z !wi) inv_denoms.(i);
    wi := Fp.mul !wi d.omega
  done;
  out
