(** The registration authority's certificate tree.

    The paper abstracts certification as an RA signing each participant's
    public key (CertGen).  To make certificate checking SNARK-friendly we
    instantiate the certificate as {e membership in an algebraic-hash
    Merkle tree of registered public keys} (Zcash-style; DESIGN.md
    substitution 3): the master public key is the tree root, a certificate
    is the leaf index, and the Auth circuit proves knowledge of [sk] with
    [pk = H(sk)] present in the tree — without revealing which leaf, so
    even the RA cannot link an attestation to a registration (the paper's
    strong anonymity, Def. 2).

    The tree hash is the {!Zebra_hashcomp.Hash_composition} parameter —
    Poseidon by default, MiMC as the ablation arm — and must match the
    composition of the {!Cpla.params} the tree is used with: a root built
    under one arm never verifies inside the other arm's circuit.

    The tree is sparse: unregistered leaves hold the level-0 default value,
    and default subtree hashes are precomputed per level. *)

type t

(** [create ~depth ()] — capacity [2^depth] registrations.  [?hash]
    (default {!Zebra_hashcomp.Hash_composition.default}) selects the node
    hash; pass the composition of the CPLA parameters this tree certifies
    for.
    @raise Invalid_argument when [depth] is outside [1, 30]. *)
val create : ?hash:Zebra_hashcomp.Hash_composition.t -> depth:int -> unit -> t

(** The node-hash composition this tree was created with. *)
val hash_composition : t -> Zebra_hashcomp.Hash_composition.t

(** Current root — the CPLA master public key [mpk]. *)
val root : t -> Fp.t

(** [register t pk] appends a public key and returns its leaf index (the
    certificate).  Re-registering the same key is refused (unique-identity
    rule: one credential per ID).
    @raise Failure when the tree is full or [pk] is already present. *)
val register : t -> Fp.t -> int

(** [path t index] is the sibling list, leaf level first, under the current
    root.  Participants refresh their path from the (public) tree before
    authenticating. *)
val path : t -> int -> Fp.t array

(** [verify_path ~root ~leaf ~index path] — native path check under the
    [?hash] composition (default Poseidon); the circuit's
    {!Zebra_hashcomp.Hash_composition.merkle_root_gadget} mirrors it. *)
val verify_path :
  ?hash:Zebra_hashcomp.Hash_composition.t ->
  root:Fp.t ->
  leaf:Fp.t ->
  index:int ->
  Fp.t array ->
  bool
