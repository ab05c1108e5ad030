module Obs = Zebra_obs.Obs
module State = Zebra_chain.State

let m_runs = Obs.Counter.make "lint.tx.runs"
let m_kinds = Obs.Counter.make "lint.tx.kinds"
let m_cases = Obs.Counter.make "lint.tx.cases"

type case = { kind : string; case : string; receipt : State.receipt }

let analyze ~kind cases =
  Obs.with_span "lint.tx.analyze" (fun () ->
      if cases = [] then invalid_arg "Txlint.analyze: no cases";
      List.iter
        (fun (c : case) ->
          if c.kind <> kind then
            invalid_arg
              (Printf.sprintf "Txlint.analyze: case %s has kind %s, expected %s" c.case c.kind
                 kind))
        cases;
      Obs.Counter.incr m_runs;
      Obs.Counter.incr m_kinds;
      List.iter (fun _ -> Obs.Counter.incr m_cases) cases;
      (* ZL103: a representative case that did not actually execute its
         branch binds nothing — the coverage it claims is vacuous. *)
      let zl103 =
        List.filter_map
          (fun c ->
            match c.receipt.State.status with
            | State.Ok _ -> None
            | State.Failed reason ->
              Some
                (Lint.make_finding "ZL103"
                   (Printf.sprintf
                      "case %s failed (%s): the contract branch this case was meant to cover \
                       was never explored"
                      c.case reason)))
          cases
      in
      Lint.make_report ~name:kind (Lint.Tx_kind { cases = List.length cases }) zl103)

let analyze_all (cases : case list) =
  let kinds = List.sort_uniq compare (List.map (fun (c : case) -> c.kind) cases) in
  List.map
    (fun kind -> analyze ~kind (List.filter (fun (c : case) -> c.kind = kind) cases))
    kinds
