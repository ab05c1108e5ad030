module Parallel = Zebra_parallel.Parallel
module Obs = Zebra_obs.Obs

(* Butterflies (resp. pointwise multiplications) per chunk below which a
   stage is not worth fanning out.  Thresholds gate only *where* the work
   runs: chunk grids are pool-independent and every chunk owns a disjoint
   index range, so results are bit-identical at any ZEBRA_DOMAINS. *)
let par_min_butterflies = 1 lsl 12
let par_min_pointwise = 1 lsl 13

(* Work counters, added once per transform or pass (one [Obs.enabled]
   test), so the disabled path stays one branch. *)
let c_butterflies = Obs.Counter.make "fft.butterflies"
let c_pointwise = Obs.Counter.make "fft.pointwise_muls"

(* A domain carries three power tables, built eagerly at creation:
   - [tw] / [tw_inv]: omega^i (resp. omega^-i) for i < size/2, shared by
     every butterfly stage via stride indexing — without them each
     butterfly pays an extra multiplication stepping its twiddle.  (At
     size 1 [tw] holds omega^0, so every point of the domain is in it.)
   - [coset_pows]: g^i / size for i < size, the one scaling pass between
     the inverse and the forward NTT of {!coset_of_evals_vec}: the
     inverse NTT's 1/n and the coset shift g^i folded into one table read
     (field multiplication is exact and associative, so folding changes
     no output byte).
   Tables hold the exact values the replaced running products computed, so
   results are limb-identical to the table-free code path.  A domain is
   immutable after [domain] returns, so one domain (e.g. inside a cached
   keypair) is safe to read from any number of OCaml domains at once. *)
type domain = {
  log_size : int;
  size : int;
  size_inv : Fp.t;
  tw : Fp.t array;
  tw_inv : Fp.t array;
  coset_pows : Fp.t array;
}

let coset_shift = Fp.generator

(* [| init; init*base; ...; init*base^(n-1) |].  Each chunk re-seeds its
   running power with [init * base^lo], so the result is independent of
   the chunk grid (and of ZEBRA_DOMAINS). *)
let power_table ?(init = Fp.one) base n =
  if n = 0 then [||]
  else begin
    let t = Array.make n init in
    Parallel.parallel_for ~min_chunk:par_min_pointwise n (fun lo hi ->
        let p = ref (Fp.mul init (Fp.pow_int base lo)) in
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
  let size_inv = Fp.inv (Fp.of_int size) in
  {
    log_size;
    size;
    size_inv;
    tw = power_table omega (max 1 (size / 2));
    tw_inv = power_table (Fp.inv omega) (size / 2);
    coset_pows = power_table ~init:size_inv coset_shift size;
  }

let size d = d.size
let element d i = Fp.pow_int (Fp.root_of_unity d.log_size) i

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
  let butterflies_run = ref 0 in
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
    butterflies_run := !butterflies_run + (n / 2);
    len := blk * 2
  done;
  if Obs.enabled () then Obs.Counter.add c_butterflies !butterflies_run

let check_len_vec d v =
  if Fp.Vec.length v <> d.size then
    invalid_arg "Fft: vector length must equal domain size"

(* v.(i) <- v.(i) * t.(i), one pointwise pass. *)
let scale_by_table_vec v t =
  let n = Fp.Vec.length v in
  Parallel.parallel_for ~min_chunk:par_min_pointwise n (fun lo hi ->
      for i = lo to hi - 1 do
        Fp.Vec.mul_slot_elt v i t.(i)
      done);
  if Obs.enabled () then Obs.Counter.add c_pointwise n

let fft_vec d v =
  check_len_vec d v;
  ntt_in_place_vec v d.tw

let ifft_vec d v =
  check_len_vec d v;
  ntt_in_place_vec v d.tw_inv;
  Parallel.parallel_for ~min_chunk:par_min_pointwise d.size (fun lo hi ->
      for i = lo to hi - 1 do
        Fp.Vec.mul_slot_elt v i d.size_inv
      done);
  if Obs.enabled () then Obs.Counter.add c_pointwise d.size

(* Interpolate on the domain, shift coefficient i by g^i (the inverse
   NTT's 1/n rides in the same table read), evaluate on the domain:
   p(g omega^i) for the p of degree < n through the domain values. *)
let coset_of_evals_vec d v =
  check_len_vec d v;
  ntt_in_place_vec v d.tw_inv;
  scale_by_table_vec v d.coset_pows;
  ntt_in_place_vec v d.tw

let vanishing_on_coset d = Fp.sub (Fp.pow_int coset_shift d.size) Fp.one
let vanishing_at d x = Fp.sub (Fp.pow_int x d.size) Fp.one

(* out.(j) <- c omega^j / (y - omega^j) for every j, y off the domain,
   by one batch inversion over the flat vector: a forward pass leaves the
   prefix products of the denominators in [out], one inversion of the
   whole product (scaled by c), and a backward pass peels each
   denominator off.  omega^j is read from [tw]: for j >= n/2 it is
   -tw.(j - n/2), and c omega^j / (y - omega^j) = c t / (-y - t) with
   t = tw.(j - n/2), so the denominator takes -y and the numerator t
   for either half.  Four multiplications per point, no allocation per
   point; the values are the field's, so any exact route gives the same
   limbs. *)
let basis_at d y c =
  let n = d.size in
  let half = Array.length d.tw in
  let neg_y = Fp.neg y in
  let out = Fp.Vec.create n in
  let den = Fp.buffer () and acc = Fp.copy Fp.one in
  let load_den j =
    if j < half then Fp.sub_into ~dst:den y d.tw.(j)
    else Fp.sub_into ~dst:den neg_y d.tw.(j - half)
  in
  for j = 0 to n - 1 do
    Fp.Vec.set out j acc;
    load_den j;
    Fp.mul_into ~dst:acc acc den
  done;
  Fp.mul_into ~dst:acc c (Fp.inv acc);
  for j = n - 1 downto 0 do
    load_den j;
    Fp.Vec.mul_slot_elt out j acc;
    Fp.mul_into ~dst:acc acc den;
    Fp.Vec.mul_slot_elt out j d.tw.(if j < half then j else j - half)
  done;
  out

(* L_j(x) = Z(x) omega^j / (n (x - omega^j)). *)
let lagrange_at d x =
  let z = vanishing_at d x in
  if Fp.is_zero z then raise Division_by_zero;
  basis_at d x (Fp.mul z d.size_inv)

(* The coset's basis is L_j(x / g); dividing it by Z(g) folds the
   quotient's division by Z on the coset into the query. *)
let coset_query d x =
  let y = Fp.div x coset_shift in
  let z = vanishing_at d y in
  if Fp.is_zero z then raise Division_by_zero;
  basis_at d y (Fp.div (Fp.mul z d.size_inv) (vanishing_on_coset d))
