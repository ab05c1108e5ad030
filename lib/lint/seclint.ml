module Obs = Zebra_obs.Obs
module Secret = Zebra_secret.Secret

let m_runs = Obs.Counter.make "lint.sec.runs"
let m_codecs = Obs.Counter.make "lint.sec.codecs"
let m_scans = Obs.Counter.make "lint.sec.scans"

type sink = Serialization | Store_put | Obs_export | Log_line

let sink_to_string = function
  | Serialization -> "serialization"
  | Store_put -> "store-put"
  | Obs_export -> "obs-export"
  | Log_line -> "log"

type codec_case = {
  codec : string;
  secrets : (string * bytes) list;
  outputs : (sink * string * bytes) list;
}

let analyze (case : codec_case) =
  Obs.with_span "lint.sec.analyze" (fun () ->
      Obs.Counter.incr m_runs;
      Obs.Counter.incr m_codecs;
      let zl202 =
        List.filter_map
          (fun (label, needle) ->
            if Bytes.length needle >= Secret.min_canary_len then None
            else
              Some
                (Lint.make_finding "ZL202"
                   (Printf.sprintf
                      "canary of secret %s is %d byte(s), below the scannable minimum of %d: \
                       this case cannot detect a leak of it"
                      label (Bytes.length needle) Secret.min_canary_len)))
          case.secrets
      in
      let zl201 =
        List.concat_map
          (fun (label, needle) ->
            List.filter_map
              (fun (sink, out_label, hay) ->
                Obs.Counter.incr m_scans;
                if Secret.leaks ~needle hay then
                  Some
                    (Lint.make_finding "ZL201"
                       (Printf.sprintf
                          "secret %s reaches the %s sink %s: its canary bytes occur in the \
                           output (%d bytes scanned)"
                          label (sink_to_string sink) out_label (Bytes.length hay)))
                else None)
              case.outputs)
          case.secrets
      in
      Lint.make_report ~name:case.codec
        (Lint.Codec { secrets = List.length case.secrets; outputs = List.length case.outputs })
        (zl201 @ zl202))
