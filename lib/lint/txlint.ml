module Obs = Zebra_obs.Obs
module State = Zebra_chain.State
module Tx = Zebra_chain.Tx
module Address = Zebra_chain.Address

let m_runs = Obs.Counter.make "lint.tx.runs"
let m_kinds = Obs.Counter.make "lint.tx.kinds"
let m_cases = Obs.Counter.make "lint.tx.cases"

type case = {
  kind : string;
  case : string;
  tx : Tx.t;
  receipt : State.receipt;
  accessed : string list;
}

(* The declared mask: the shards of the static footprint (the sender and
   the destination or created address, touched before any contract logic
   runs) and of the declared extras. *)
let shard_mask tx =
  let dst =
    match tx.Tx.dst with
    | Tx.Call dst -> dst
    | Tx.Create _ -> Address.of_creator tx.Tx.sender tx.Tx.nonce
  in
  List.fold_left
    (fun m a -> m lor (1 lsl State.shard_of_address a))
    0
    (tx.Tx.sender :: dst :: tx.Tx.footprint)

let trace_case ~kind ~case st ~height tx =
  let receipt, accessed = State.apply_tx_traced st ~height tx in
  { kind; case; tx; receipt; accessed }

let shards_of_mask m =
  let out = ref [] in
  for s = State.num_shards - 1 downto 0 do
    if (m lsr s) land 1 = 1 then out := s :: !out
  done;
  !out

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
      let accessed = Hashtbl.create 8 and declared = Hashtbl.create 8 in
      (* ZL101: accesses outside the declared mask, per case, one finding
         per offending shard (the first offending key names it). *)
      let zl101 =
        List.concat_map
          (fun c ->
            let mask = shard_mask c.tx in
            List.iter (fun s -> Hashtbl.replace declared s ()) (shards_of_mask mask);
            let seen = Hashtbl.create 4 in
            List.filter_map
              (fun key ->
                let s = State.shard_of_key key in
                Hashtbl.replace accessed s ();
                if (mask lsr s) land 1 = 1 || Hashtbl.mem seen s then None
                else begin
                  Hashtbl.replace seen s ();
                  Some
                    (Lint.make_finding "ZL101"
                       (Printf.sprintf
                          "case %s: access to %s (shard %d) is outside the declared mask %s"
                          c.case key s
                          (Lint.shard_set_to_string (shards_of_mask mask))))
                end)
              c.accessed)
          cases
      in
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
      (* ZL102: declared extras (beyond the static sender/destination part)
         whose shard no analysed path ever touches. *)
      let zl102 =
        let seen_addr = Hashtbl.create 8 in
        List.concat_map
          (fun c ->
            List.filter_map
              (fun a ->
                let hex = Address.to_hex a in
                let s = State.shard_of_address a in
                if Hashtbl.mem accessed s || Hashtbl.mem seen_addr hex then None
                else begin
                  Hashtbl.replace seen_addr hex ();
                  Some
                    (Lint.make_finding "ZL102"
                       (Printf.sprintf
                          "declared footprint address %s (shard %d) is never accessed on any \
                           analysed path"
                          hex s))
                end)
              c.tx.Tx.footprint)
          cases
      in
      let sorted tbl = List.sort compare (Hashtbl.fold (fun s () acc -> s :: acc) tbl []) in
      let accessed_shards = sorted accessed and declared_shards = sorted declared in
      let zl110 =
        [
          Lint.make_finding "ZL110"
            (Printf.sprintf "%d case(s): shards accessed %s, declared %s" (List.length cases)
               (Lint.shard_set_to_string accessed_shards)
               (Lint.shard_set_to_string declared_shards));
        ]
      in
      Lint.make_report ~name:kind
        (Lint.Tx_kind { cases = List.length cases; accessed_shards; declared_shards })
        (List.concat [ zl101; zl102; zl103; zl110 ]))

let analyze_all (cases : case list) =
  let kinds = List.sort_uniq compare (List.map (fun (c : case) -> c.kind) cases) in
  List.map
    (fun kind -> analyze ~kind (List.filter (fun (c : case) -> c.kind = kind) cases))
    kinds
