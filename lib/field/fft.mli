(** Radix-2 number-theoretic transforms over {!Fp}.

    An evaluation {!domain} of size [2^k] carries the root-of-unity tables
    the QAP reduction needs: forward and inverse FFT, the fused
    domain-to-coset transform the prover uses to evaluate its witness
    polynomials where the vanishing polynomial is a nonzero constant, and
    the two Lagrange-basis evaluations the SNARK setup builds its keys
    from.

    Large transforms fan their butterfly stages and scaling passes out over
    {!Zebra_parallel.Parallel}; results are bit-identical at every
    [ZEBRA_DOMAINS] setting (chunk grids are pool-independent — see
    DESIGN.md, "Multicore prover").  With {!Zebra_obs.Obs} enabled, the
    counters [fft.butterflies] and [fft.pointwise_muls] count the
    butterflies and scaling-pass multiplications run. *)

(** A power-of-two evaluation domain with its root-of-unity tables.
    Immutable once built, so a single domain may be read concurrently from
    any number of OCaml domains (e.g. provers sharing a cached keypair). *)
type domain

(** [domain n] builds the smallest power-of-two domain of size [>= n],
    with its three tables: omega^i and omega^-i for i < size/2 (the
    twiddles), and g^i / size for i < size (the coset pass of
    {!coset_of_evals_vec}).  They are built eagerly, on the calling
    domain; the returned value is never mutated afterwards.
    @raise Invalid_argument if that exceeds the field's 2-adicity. *)
val domain : int -> domain

(** The domain size (a power of two). *)
val size : domain -> int

(** [element d i] is omega^i, omega the domain's primitive [size]-th root
    of unity. *)
val element : domain -> int -> Fp.t

(** {2 Transforms}

    In place over one contiguous {!Fp.Vec.t} limb buffer, zero allocation
    per butterfly (per-chunk scratch elements only).  Vector length must
    equal [size d]. *)

(** Forward FFT: coefficients -> evaluations on the domain. *)
val fft_vec : domain -> Fp.Vec.t -> unit

(** Inverse FFT: evaluations -> coefficients. *)
val ifft_vec : domain -> Fp.Vec.t -> unit

(** [coset_of_evals_vec d v] takes the values of a polynomial p of degree
    [< size] on the domain to its values on the coset [g * <omega>], where
    [g] is the field's multiplicative generator: [v.(i)] becomes
    [p(g omega^i)].  One inverse NTT, one scaling pass by [g^i / size],
    one forward NTT.  On the coset the vanishing polynomial
    [Z(x) = x^size - 1] is the nonzero constant [g^size - 1], which is how
    the QAP prover divides by [Z] exactly. *)
val coset_of_evals_vec : domain -> Fp.Vec.t -> unit

(** [vanishing_on_coset d] is [g^size - 1]. *)
val vanishing_on_coset : domain -> Fp.t

(** [vanishing_at d x] evaluates [Z(x) = x^size - 1]. *)
val vanishing_at : domain -> Fp.t -> Fp.t

(** [lagrange_at d x] evaluates every Lagrange basis polynomial of the
    domain at the point [x]: slot [j] holds [L_j(x)], so
    [sum_j p(omega^j) L_j(x) = p(x)] for any p of degree [< size].  One
    batch inversion on the in-place kernels, O(size) field operations.
    Used by the SNARK setup.  @raise Division_by_zero when [x] is in the
    domain. *)
val lagrange_at : domain -> Fp.t -> Fp.Vec.t

(** [coset_query d x] is the coset's Lagrange basis at [x] divided by
    [Z(g)]: slot [j] holds [q_j = L_j(x / g) / (g^size - 1)], so
    [sum_j p(g omega^j) q_j Z(g) = p(x)] for any p of degree [< size].
    The SNARK's proving key holds it at the secret point: the quotient
    [H = (A B - C) / Z] has the values [(a_j b_j - c_j) / Z(g)] on the
    coset, so [H(s) = sum_j (a_j b_j - c_j) q_j].  Built as
    {!lagrange_at}.  @raise Division_by_zero when [x] is on the coset. *)
val coset_query : domain -> Fp.t -> Fp.Vec.t
