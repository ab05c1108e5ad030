(** MiMC block cipher and hash over the SNARK field.

    The paper instantiates its DApp-layer hash with SHA-256 and verifies it
    inside the zk-SNARK circuit; in-circuit SHA-256 is what made attestation
    generation take ~70s.  Following every post-2018 deployment (Zcash
    Sapling, ethsnarks, circomlib), we substitute the algebraic MiMC hash in
    the provable paths: the exponent-7 MiMC-p/p cipher with 91 rounds
    (ceil(log_7 r)), with round constants derived from SHA-256, composed
    into a hash via the Miyaguchi-Preneel construction.

    The circuit gadget in {!Zebra_r1cs.Gadgets.mimc_hash} mirrors this exact
    computation constraint-for-constraint; tests cross-check the two. *)

val rounds : int

val exponent : int

(** Round constants: [c_0 = 0], the rest derived from
    SHA-256("ZebraLancer.MiMC." ^ string_of_int i). *)
val round_constants : Fp.t array

(** [encrypt ~key x] is the MiMC-p/p permutation
    [x_{i+1} = (x_i + key + c_i)^7], 91 rounds, followed by a final key
    addition. *)
val encrypt : key:Fp.t -> Fp.t -> Fp.t

(** [decrypt ~key y] inverts {!encrypt} (sanity/permutation tests). *)
val decrypt : key:Fp.t -> Fp.t -> Fp.t

(** [hash_list ms]: Merkle-Damgard chain of the Miyaguchi-Preneel
    compression [compress h m = encrypt ~key:h m + m + h] from IV 0, with
    the list length absorbed first (length extension defence). *)
val hash_list : Fp.t list -> Fp.t

(** [hash2 a b = hash_list [a; b]] — the Merkle tree compression. *)
val hash2 : Fp.t -> Fp.t -> Fp.t

(** [hash_bytes b] maps arbitrary bytes into the field via SHA-256 before
    absorbing (off-circuit convenience for prefixes/messages). *)
val hash_bytes : bytes -> Fp.t
