(** ZL2xx — secret-flow analysis by canary-byte checking.

    Secrets (the SNARK trapdoor [t_s], ElGamal decryption keys, wallet
    signing keys, worker master identities) live in {!Zebra_secret.Secret}
    boxes; each holder exposes a [*_canary] projection of the boxed value.
    A {!codec_case} pairs the canaries of every secret reachable from some
    subsystem with the bytes that subsystem actually emits into each
    {b sink} — serialisations, {!Zebra_store.Store} puts, obs exports, log
    lines.  The pass scans every sink output for every canary:

    - {b ZL201 (Error)}: canary bytes found in a sink — the secret escaped
      its box into persistable output (the PR 5 trapdoor-persistence leak,
      regression-locked by the [snark.keypair] case in
      [Zebralancer.Deployed_txs.codecs]).
    - {b ZL202 (Warn)}: a registered canary shorter than
      {!Zebra_secret.Secret.min_canary_len} — too weak to scan for, so the
      case proves less than it claims.

    Matching is substring occurrence of the canary or its byte reversal
    (catching endianness-flipped encodings); see
    {!Zebra_secret.Secret.leaks}. *)

type sink = Serialization | Store_put | Obs_export | Log_line

type codec_case = {
  codec : string;  (** e.g. ["snark.keypair"] *)
  secrets : (string * bytes) list;  (** (secret label, canary bytes) *)
  outputs : (sink * string * bytes) list;  (** (sink, output label, bytes) *)
}

(** Scan every output of the case for every canary; the report's subject
    is a {!Lint.Codec}. *)
val analyze : codec_case -> Lint.report
