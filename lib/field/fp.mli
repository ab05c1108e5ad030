(** The SNARK scalar field: integers modulo the BN254 group order

    r = 21888242871839275222246405745257275088548364400416034343698204186575808495617

    chosen for its high 2-adicity (r - 1 is divisible by 2^28), which enables
    radix-2 FFTs over evaluation domains of up to 2^28 points.  Elements are
    kept in Montgomery form internally: x 2^279 mod r in nine 31-bit
    limbs.

    This module is the one Montgomery implementation for r (DESIGN.md,
    "Field kernel discipline"): every operation below — the pure ones,
    the in-place [*_into] ones, the {!Vec} slot kernels, the bucketed dot
    product, the [Nat] conversions and {!pow} — runs on its own kernels
    fixed at r's nine limbs; {!inv} runs [Nat.inverse] on the canonical
    representative. *)

(** A field element (Montgomery form; canonical, so structural equality of
    limbs coincides with field equality). *)
type t

(** The prime r itself, as a natural. *)
val modulus : Nat.t

(** The additive identity. *)
val zero : t

(** The multiplicative identity. *)
val one : t

(** [add one one], predefined for gadget code. *)
val two : t

(** [of_int n] embeds a machine integer (negative values reduce mod r,
    [min_int] included). *)
val of_int : int -> t

(** [of_nat n] reduces [n] modulo r. *)
val of_nat : Nat.t -> t

(** The canonical representative in [0, r). *)
val to_nat : t -> Nat.t

(** [of_bytes_be b] reduces the big-endian bytes modulo r (used to map
    SHA-256 digests and addresses into the field). *)
val of_bytes_be : bytes -> t

(** Canonical 32-byte big-endian encoding. *)
val to_bytes_be : t -> bytes

(** [write w x] appends {!to_bytes_be} [x] as a length-prefixed string. *)
val write : Zebra_codec.Codec.writer -> t -> unit

(** [read r] is the one reader of a field element off the wire, the
    inverse of {!write}: a canonical 32-byte encoding strictly below r.
    @raise Zebra_codec.Codec.Decode_error on a short, long or non-canonical
    element. *)
val read : Zebra_codec.Codec.reader -> t

(** Field equality. *)
val equal : t -> t -> bool

(** [equal x zero], without materialising [zero]. *)
val is_zero : t -> bool

(** Total order on canonical representatives (for sorting, not algebra). *)
val compare : t -> t -> int

(** Field addition. *)
val add : t -> t -> t

(** Field subtraction. *)
val sub : t -> t -> t

(** Additive inverse. *)
val neg : t -> t

(** Field multiplication (one Montgomery reduction). *)
val mul : t -> t -> t

(** [sqr x = mul x x], the common case optimised. *)
val sqr : t -> t

(** Multiplicative inverse, by [Nat.inverse] on the canonical
    representative.  @raise Division_by_zero on zero. *)
val inv : t -> t

(** [div a b = mul a (inv b)].  @raise Division_by_zero when [b] is zero. *)
val div : t -> t -> t

(** [pow x e] by square-and-multiply over one accumulator
    ([pow x zero = one]). *)
val pow : t -> Nat.t -> t

(** [pow] for machine-integer exponents; negative exponents invert
    ([min_int] included).  @raise Division_by_zero for a negative
    exponent of zero. *)
val pow_int : t -> int -> t

(** Multiplicative generator of the full group (5 for this field). *)
val generator : t

(** r - 1 = 2^28 * odd. *)
val two_adicity : int

(** [root_of_unity k] is a primitive 2^k-th root of unity, 0 <= k <= 28. *)
val root_of_unity : int -> t

(** [random random_bytes] samples uniformly. *)
val random : (int -> bytes) -> t

(** [batch_inv a] inverts every element of [a] with one field inversion
    (Montgomery's trick).  @raise Division_by_zero if any element is zero. *)
val batch_inv : t array -> t array

(** {2 In-place kernels}

    Destructive variants of the arithmetic above, writing into
    caller-provided buffers so hot loops allocate nothing per
    operation (DESIGN.md, "Field kernel discipline").  {b Only mutate
    buffers you created with} [buffer]/[copy]: elements returned by the
    pure API may be shared — [zero] and [one] are process-wide globals
    and [Array.make d Fp.zero] aliases [zero] in every slot.

    Aliasing: [dst] may be physically equal to either operand, or both:
    each kernel reads all of its operands' limbs before it writes
    [dst]. *)

(** A fresh caller-owned element buffer, initialised to zero. *)
val buffer : unit -> t

(** A fresh caller-owned buffer holding the value of the argument. *)
val copy : t -> t

val set_zero : t -> unit
val add_into : dst:t -> t -> t -> unit
val sub_into : dst:t -> t -> t -> unit
val mul_into : dst:t -> t -> t -> unit
val sqr_into : dst:t -> t -> unit

(** [equal x one] without materialising [one]. *)
val is_one : t -> bool

(** {2 Flat element vectors}

    [Vec.t] stores n field elements in one contiguous [int array] of
    n·limbs — one allocation for a whole polynomial instead of one per
    element, with indexed in-place slot operations for the FFT and
    prover hot loops.

    Slot semantics: [op d k a i b j] computes [d.(k) <- a.(i) op b.(j)].
    Like the element kernels, every slot kernel reads its sources before
    it writes, so a destination slot or element may coincide with any
    source.  Each slot index is checked once per call: an index outside
    [\[0, length v)] raises [Invalid_argument] before any limb is
    touched. *)
module Vec : sig
  type elt = t

  type t

  (** [create n] is a vector of [n] zeros (one allocation). *)
  val create : int -> t

  val length : t -> int

  (** [get v i] copies slot [i] out into a fresh element. *)
  val get : t -> int -> elt

  (** [set v i x] copies the value of [x] into slot [i] ([x] is not
      captured — the vector owns its storage). *)
  val set : t -> int -> elt -> unit

  val copy : t -> t

  (** [blit src si dst di k] copies [k] slots. *)
  val blit : t -> int -> t -> int -> int -> unit

  (** [of_array a] copies the elements of [a] in ([a] is unchanged). *)
  val of_array : elt array -> t

  (** [to_array v] is the vector as an array of fresh elements. *)
  val to_array : t -> elt array

  val swap : t -> int -> int -> unit
  val is_zero : t -> int -> bool
  val add_slots : t -> int -> t -> int -> t -> int -> unit
  val sub_slots : t -> int -> t -> int -> t -> int -> unit

  (** [mul_slot_elt v i e]: [v.(i) <- v.(i) * e]. *)
  val mul_slot_elt : t -> int -> elt -> unit

  (** [mul_into_elt ~dst a i b j]: [dst <- a.(i) * b.(j)]. *)
  val mul_into_elt : dst:elt -> t -> int -> t -> int -> unit

  (** [mul_elt_into ~dst v i e]: [dst <- v.(i) * e]. *)
  val mul_elt_into : dst:elt -> t -> int -> elt -> unit

  (** [sub_elt_into ~dst e v i]: [dst <- e - v.(i)]. *)
  val sub_elt_into : dst:elt -> elt -> t -> int -> unit

  (** [add_slot_elt v i e]: [v.(i) <- v.(i) + e]. *)
  val add_slot_elt : t -> int -> elt -> unit

  (** [butterfly ~tmp v p q w]:
      [(v.(p), v.(q)) <- (v.(p) + w v.(q), v.(p) - w v.(q))]. *)
  val butterfly : tmp:elt -> t -> int -> int -> elt -> unit
end

(** {2 Bucketed sparse dot products}

    Pippenger's bucket method transposed to this field-simulated SNARK:
    dot-product terms are bucketed by coefficient class, so the +-1
    coefficients that dominate R1CS rows (and 0/1 boolean-wire witness
    values) cost one limb addition each and no multiplication.  Field
    addition is exact, associative and commutative, so the regrouped
    sum is limb-identical to the naive one — proof bytes are
    unchanged. *)

(** One classification byte per element (precompute at matrix build):
    ['\001'] for +1, ['\002'] for -1, ['\000'] otherwise. *)
val classify_coefs : t array -> Bytes.t

(** Per-worker scratch (two bucket accumulators and a product
    temporary); create one per parallel chunk, never share across
    domains. *)
type dot_scratch

val dot_scratch : unit -> dot_scratch

(** [dot_sparse_acc ~scratch ~acc ~cls ~coefs ~idx ~w ~lo ~hi] adds
    [sum_{k in [lo,hi)} coefs.(k) * w.(idx.(k))] into the caller-owned
    buffer [acc], skipping zero witness values and bucketing by
    [cls] (from {!classify_coefs} over [coefs]).  With
    {!Zebra_obs.Obs} enabled, each call adds the terms it visited (nonzero
    witness value) per class to the counters [fp.dot.terms_pos],
    [fp.dot.terms_neg] and [fp.dot.terms_generic]. *)
val dot_sparse_acc :
  scratch:dot_scratch ->
  acc:t ->
  cls:Bytes.t ->
  coefs:t array ->
  idx:int array ->
  w:t array ->
  lo:int ->
  hi:int ->
  unit

(** Hex rendering for debugging and test failure messages. *)
val pp : Format.formatter -> t -> unit
