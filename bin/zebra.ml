(* The zebra CLI: run crowdsourcing tasks on a local simulated chain.

     zebra demo                         quickstart task, verbose
     zebra annotate -n 5 --budget 150   one image-annotation task
     zebra auction -k 3 --bids 7,2,9,4  reverse auction
     zebra stats                        instrumented run + metric tree
     zebra chaos --seed s1 --plan ...   seeded fault-injection round
     zebra inspect                      circuit/system parameters
     zebra lint --strict                static analysis of deployed circuits
*)

open Cmdliner
open Zebralancer
open Zebra_chain

let seed_arg =
  let doc = "Deterministic seed for the whole run (chain, keys, proofs)." in
  Arg.(value & opt string "zebra-cli" & info [ "seed" ] ~docv:"SEED" ~doc)

let quiet_arg =
  let doc = "Only print the final settlement." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

(* --domains N | auto: worker domains for the parallel prover.  Applied as
   a side effect before the command body runs; proofs are bit-identical at
   any setting, so this is purely a performance knob. *)
let domains_arg =
  let domains_conv =
    let parse s =
      match Zebra_parallel.Parallel.parse_domains s with
      | n -> Ok n
      | exception Invalid_argument m -> Error (`Msg m)
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc =
    "Domains for the parallel prover: a positive integer or $(b,auto). Overrides the \
     $(b,ZEBRA_DOMAINS) environment variable."
  in
  let term =
    Arg.(value & opt (some domains_conv) None & info [ "domains" ] ~docv:"N" ~doc)
  in
  Term.(
    const (fun d -> Option.iter Zebra_parallel.Parallel.set_default_domains d) $ term)

let log fmt = Printf.printf (fmt ^^ "\n%!")

let settle sys (task : Requester.task) wallets rewards answers ~quiet =
  if not quiet then log "reward instruction verified on-chain";
  List.iteri
    (fun i w ->
      log "worker %d answered %-3d -> paid %4d  (balance %d)" (i + 1) (List.nth answers i)
        rewards.(i)
        (Network.balance sys.Protocol.net (Wallet.address w)))
    wallets;
  log "requester refund: %d"
    (Network.balance sys.Protocol.net (Wallet.address task.Requester.wallet))

let run_majority ~seed ~quiet ~n ~budget ~choices ~answers =
  let sys = Protocol.create_system ~seed () in
  if not quiet then
    log "chain up (%d nodes); CPLA circuit: %d constraints" (Network.num_nodes sys.Protocol.net)
      (Zebra_anonauth.Cpla.circuit_size sys.Protocol.cpla);
  let answers =
    match answers with
    | Some a -> a
    | None -> List.init n (fun i -> if (i + 1) mod 4 = 0 then 1 mod choices else 0)
  in
  if List.length answers <> n then failwith "need exactly n answers";
  let task, wallets, rewards =
    Protocol.run_task sys ~policy:(Policy.Majority { choices }) ~budget ~answers
  in
  settle sys task wallets rewards answers ~quiet;
  `Ok ()

let ints_of_string s =
  try List.map int_of_string (String.split_on_char ',' s)
  with _ -> failwith "expected a comma-separated list of integers"

(* --- demo --- *)

let demo_cmd =
  let run () seed quiet =
    run_majority ~seed ~quiet ~n:3 ~budget:90 ~choices:4 ~answers:(Some [ 1; 1; 2 ])
  in
  let doc = "Run the quickstart task: 3 workers, majority vote, budget 90." in
  Cmd.v (Cmd.info "demo" ~doc) Term.(ret (const run $ domains_arg $ seed_arg $ quiet_arg))

(* --- annotate --- *)

let annotate_cmd =
  let n_arg =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of answers to collect.")
  in
  let budget_arg =
    Arg.(value & opt int 150 & info [ "budget" ] ~docv:"TOKENS" ~doc:"Task budget.")
  in
  let choices_arg =
    Arg.(value & opt int 4 & info [ "choices" ] ~docv:"K" ~doc:"Size of the label space.")
  in
  let answers_arg =
    let doc = "Comma-separated worker answers (default: mostly label 0)." in
    Arg.(value & opt (some string) None & info [ "answers" ] ~docv:"A1,A2,..." ~doc)
  in
  let run () seed quiet n budget choices answers =
    try run_majority ~seed ~quiet ~n ~budget ~choices ~answers:(Option.map ints_of_string answers)
    with Failure m -> `Error (false, m)
  in
  let doc = "Run one image-annotation task under the majority-vote incentive." in
  Cmd.v (Cmd.info "annotate" ~doc)
    Term.(
      ret
        (const run $ domains_arg $ seed_arg $ quiet_arg $ n_arg $ budget_arg $ choices_arg
       $ answers_arg))

(* --- auction --- *)

let auction_cmd =
  let winners_arg =
    Arg.(value & opt int 2 & info [ "k"; "winners" ] ~docv:"K" ~doc:"Number of winners.")
  in
  let max_bid_arg =
    Arg.(value & opt int 15 & info [ "max-bid" ] ~docv:"B" ~doc:"Highest admissible bid.")
  in
  let bids_arg =
    Arg.(value & opt string "7,2,9,4,12,3" & info [ "bids" ] ~docv:"B1,B2,..." ~doc:"Worker bids.")
  in
  let budget_arg =
    Arg.(value & opt int 60 & info [ "budget" ] ~docv:"TOKENS" ~doc:"Task budget.")
  in
  let run () seed quiet winners max_bid bids budget =
    try
      let bids = ints_of_string bids in
      let sys = Protocol.create_system ~seed () in
      let task, wallets, rewards =
        Protocol.run_task sys
          ~policy:(Policy.Reverse_auction { winners; max_bid })
          ~budget ~answers:bids
      in
      settle sys task wallets rewards bids ~quiet;
      `Ok ()
    with Failure m -> `Error (false, m)
  in
  let doc = "Run a sealed-bid reverse auction ((k+1)-price, bids confidential)." in
  Cmd.v (Cmd.info "auction" ~doc)
    Term.(
      ret
        (const run $ domains_arg $ seed_arg $ quiet_arg $ winners_arg $ max_bid_arg $ bids_arg
       $ budget_arg))

(* --- batch --- *)

let batch_cmd =
  let tasks_arg =
    Arg.(value & opt int 3 & info [ "tasks" ] ~docv:"T" ~doc:"Number of tasks in the batch.")
  in
  let n_arg =
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"Workers per task.")
  in
  let run () seed quiet tasks n =
    let sys = Protocol.create_system ~seed () in
    let answer_sets = List.init tasks (fun t -> List.init n (fun w -> (t + w) mod 4)) in
    let results =
      Protocol.run_batch sys ~policy:(Policy.Majority { choices = 4 }) ~budget_per_task:(30 * n)
        ~answer_sets
    in
    if not quiet then log "one reward-circuit setup amortised over %d tasks" tasks;
    List.iteri
      (fun i r ->
        log "task %d rewards: %s" (i + 1)
          (String.concat "," (List.map string_of_int (Array.to_list r))))
      results;
    `Ok ()
  in
  let doc = "Run a batch of same-shape tasks sharing one trusted setup." in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(ret (const run $ domains_arg $ seed_arg $ quiet_arg $ tasks_arg $ n_arg))

(* --- truth --- *)

let truth_cmd =
  let items_arg =
    Arg.(value & opt int 100 & info [ "items" ] ~docv:"I" ~doc:"Number of questions.")
  in
  let run seed items =
    let rng = Zebra_rng.Chacha20.create ~seed in
    let rb n = Zebra_rng.Chacha20.bytes rng n in
    let data, truth =
      Truth_inference.synthesize ~random_bytes:rb ~items ~choices:4
        ~reliabilities:[| 0.95; 0.9; 0.3; 0.3; 0.3 |] ()
    in
    let maj = Truth_inference.majority data in
    let em = Truth_inference.dawid_skene data in
    log "majority voting accuracy: %.1f%%" (100. *. Truth_inference.accuracy ~truth maj);
    log "Dawid-Skene EM accuracy : %.1f%% (%d iterations)"
      (100. *. Truth_inference.accuracy ~truth em.Truth_inference.labels)
      em.Truth_inference.iterations;
    `Ok ()
  in
  let doc = "Compare majority voting with EM truth inference on a synthetic crowd." in
  Cmd.v (Cmd.info "truth" ~doc) Term.(ret (const run $ seed_arg $ items_arg))

(* --- stats --- *)

let stats_cmd =
  let module Obs = Zebra_obs.Obs in
  let json_arg =
    let doc = "Print the raw metrics snapshot as JSON instead of the tree." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run () seed json =
    Obs.reset ();
    Obs.set_enabled true;
    let sys = Protocol.create_system ~seed () in
    let _task, _wallets, rewards =
      Protocol.run_task sys ~policy:(Policy.Majority { choices = 4 }) ~budget:90
        ~answers:[ 1; 1; 2 ]
    in
    (* Lint the circuits this run deployed (CPLA on its default Poseidon
       arm) so the tree shows lint.* too. *)
    let lint name synth =
      let cs = Zebra_r1cs.Cs.create () in
      synth cs;
      ignore (Zebra_lint.Lint.analyze ~name cs)
    in
    lint "cpla-depth6-poseidon" (Zebra_anonauth.Cpla.synthesize_dummy ~depth:6);
    lint "reward-majority-n3"
      (Reward_circuit.synthesize_dummy ~policy:(Policy.Majority { choices = 4 }) ~n:3);
    Obs.set_enabled false;
    if json then print_endline (Obs.to_json_string ())
    else begin
      log "instrumented run: 3-worker majority task, rewards %s"
        (String.concat "," (List.map string_of_int (Array.to_list rewards)));
      log "";
      print_string (Obs.render_tree ())
    end;
    `Ok ()
  in
  let doc =
    "Run one end-to-end task with the observability layer enabled and print the \
     per-phase metric tree (spans, counters, histograms)."
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const run $ domains_arg $ seed_arg $ json_arg))

(* --- lint --- *)

let lint_cmd =
  let module Lint = Zebra_lint.Lint in
  let module Seclint = Zebra_lint.Seclint in
  let module Json = Zebra_obs.Json in
  let strict_arg =
    let doc = "Exit with status 1 if any $(b,Error)-severity finding is reported." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let json_arg =
    let doc = "Shorthand for $(b,--format json)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,text), $(b,json), or $(b,sarif) (SARIF 2.1.0, for CI PR \
       annotation)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let tx_arg =
    let doc =
      "Analyze the deployed secret-flow codec registry ($(b,Deployed_txs)) instead of \
       the R1CS circuits: secret canary leaks into persisted bytes (ZL2xx)."
    in
    Arg.(value & flag & info [ "tx" ] ~doc)
  in
  let circuit_arg =
    let doc =
      "Only lint the named circuit (see $(b,zebra lint --list) for names); repeatable."
    in
    Arg.(value & opt_all string [] & info [ "circuit" ] ~docv:"NAME" ~doc)
  in
  let list_arg =
    let doc = "List the deployed circuit (or, with $(b,--tx), codec case) names and exit." in
    Arg.(value & flag & info [ "list" ] ~doc)
  in
  let max_arg =
    let doc = "Warn/info findings printed per rule before eliding." in
    Arg.(value & opt int 5 & info [ "max-per-rule" ] ~docv:"K" ~doc)
  in
  (* The circuits, or with --tx the codec cases. *)
  let analyze tx only =
    if tx then List.map Seclint.analyze (Deployed_txs.codecs ())
    else
      let selected =
        match only with
        | [] -> Deployed.circuits ()
        | names ->
          List.map
            (fun n ->
              match Deployed.find n with
              | Some synth -> (n, synth)
              | None -> failwith (Printf.sprintf "unknown circuit %S (try --list)" n))
            names
      in
      List.map
        (fun (name, synth) ->
          let cs = Zebra_r1cs.Cs.create () in
          synth cs;
          Lint.analyze ~name cs)
        selected
  in
  let run strict json format tx only list max_per_rule =
    let format = if json then `Json else format in
    if list then begin
      List.iter print_endline
        (if tx then List.map (fun (c : Seclint.codec_case) -> c.codec) (Deployed_txs.codecs ())
         else Deployed.names ());
      `Ok ()
    end
    else
      try
        let reports = analyze tx only in
        let total sel = List.fold_left (fun acc r -> acc + sel r) 0 reports in
        (match format with
        | `Json -> print_endline (Json.to_string (Json.List (List.map Lint.to_json reports)))
        | `Sarif -> print_endline (Json.to_string (Lint.to_sarif reports))
        | `Text ->
          List.iter (fun r -> print_string (Lint.render ~max_per_rule r)) reports;
          log "total: %d subject(s), %d error(s), %d warn(s), %d info(s)" (List.length reports)
            (total Lint.errors) (total Lint.warnings) (total Lint.infos));
        (* Findings are the command's result, not a usage error, so they
           exit 1 rather than with cmdliner's CLI-error status (124). *)
        if strict && total Lint.errors > 0 then begin
          Printf.eprintf "zebra: %d Error-severity lint finding(s)\n%!" (total Lint.errors);
          exit 1
        end
        else `Ok ()
      with Failure m -> `Error (false, m)
  in
  let doc =
    "Statically analyze the deployed R1CS circuits (unconstrained wires, degenerate \
     constraints, Jacobian rank, gadget contracts), or with $(b,--tx) the deployed \
     secret-flow codec cases (canaries in persisted bytes)."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"with $(b,--strict), on any $(b,Error)-severity finding."
    :: Cmd.Exit.defaults
  in
  Cmd.v (Cmd.info "lint" ~doc ~exits)
    Term.(
      ret
        (const run $ strict_arg $ json_arg $ format_arg $ tx_arg $ circuit_arg $ list_arg
       $ max_arg))

(* --- chaos --- *)

let chaos_cmd =
  let module Obs = Zebra_obs.Obs in
  let module Faults = Zebra_faults.Faults in
  let plan_arg =
    let doc =
      "Fault plan: comma-separated $(b,drop=P), $(b,delay=P:K), $(b,dup=P), \
       $(b,reorder=P), $(b,lose=P), $(b,corrupt=P), $(b,crash=NODE:FROM-TO), \
       $(b,partition=A|B:FROM-TO) (split the replicas A|B for the window, heal by \
       fork-choice), $(b,byzmine=NODE:MODE) (byzantine miner; MODE is $(b,reorder), \
       $(b,censor) or $(b,fork)), $(b,eclipse=WORKER:FROM-TO) (hold one worker's \
       transactions for the window), $(b,collude=K) (the last K workers submit an \
       identical deviant answer), $(b,withhold), $(b,noinstruct); or $(b,none)."
    in
    Arg.(value & opt string "drop=0.15,delay=0.15:2,dup=0.1" & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of workers.")
  in
  let budget_arg =
    Arg.(value & opt int 60 & info [ "budget" ] ~docv:"TOKENS" ~doc:"Task budget.")
  in
  let run () seed quiet plan n budget =
    try
      let spec = Faults.spec_of_string plan in
      Obs.reset ();
      Obs.set_enabled true;
      let outcome = Chaos.run ~n ~budget ~seed ~plan:spec () in
      Obs.set_enabled false;
      if quiet then log "settlement: %s" (Chaos.settlement_to_string outcome.Chaos.settlement)
      else begin
        log "chaos run: seed=%s plan=%s" seed (Faults.spec_to_string spec);
        print_endline (Chaos.outcome_to_string outcome);
        let dump prefix =
          List.iter (fun (k, v) -> log "  %-34s %d" k v) (Obs.counters_with_prefix prefix)
        in
        log "fault counters:";
        dump "faults.";
        log "retry counters:";
        dump "protocol.retry."
      end;
      let violated =
        List.filter_map
          (fun (name, ok) -> if ok then None else Some name)
          [
            ("replica agreement", outcome.Chaos.replicas_agree);
            ("supply conservation", outcome.Chaos.supply_conserved);
            ("store recovery", outcome.Chaos.store_recovered);
            ("indexer agreement", outcome.Chaos.indexer_agrees);
          ]
      in
      if violated = [] then `Ok ()
      else
        `Error
          (false, "chaos invariants violated: " ^ String.concat ", " violated)
    with Invalid_argument m | Failure m -> `Error (false, m)
  in
  let doc =
    "Run one crowdsourcing round under a seeded fault plan and print the injected-fault \
     trace, the settlement and the invariant checks.  The same $(b,--seed)/$(b,--plan) \
     pair always reproduces the identical trace and outcome."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(ret (const run $ domains_arg $ seed_arg $ quiet_arg $ plan_arg $ n_arg $ budget_arg))

(* --- load --- *)

let load_cmd =
  let module Obs = Zebra_obs.Obs in
  let tasks_arg =
    Arg.(value & opt int 20 & info [ "tasks" ] ~docv:"T" ~doc:"Total tasks to run.")
  in
  let requesters_arg =
    Arg.(value & opt int 4 & info [ "requesters" ] ~docv:"N" ~doc:"Requester pool size.")
  in
  let workers_arg =
    Arg.(value & opt int 8 & info [ "workers" ] ~docv:"M" ~doc:"Worker pool size.")
  in
  let per_task_arg =
    Arg.(value & opt int 2 & info [ "per-task" ] ~docv:"K" ~doc:"Submissions per task.")
  in
  let inflight_arg =
    Arg.(value & opt int 8 & info [ "inflight" ] ~docv:"W" ~doc:"Max tasks in flight.")
  in
  let run () seed quiet tasks requesters workers per_task inflight =
    try
      Obs.reset ();
      Obs.set_enabled true;
      let config =
        {
          Load.default_config with
          Load.tasks;
          requesters;
          workers;
          workers_per_task = per_task;
          inflight;
          seed;
        }
      in
      let report = Load.run ~config () in
      Obs.set_enabled false;
      print_string (Load.render_deterministic report);
      if not quiet then print_string (Load.render_timing report);
      if Load.ok report then `Ok ()
      else
        `Error
          (false, "load invariants violated (failures / replica agreement / supply / replay)")
    with Invalid_argument m | Failure m -> `Error (false, m)
  in
  let doc =
    "Drive N requesters x M workers running many CPLA tasks end-to-end through the \
     fee-ordered mempool; print deterministic facts \
     (identical at any $(b,--domains)) plus $(b,#)-prefixed throughput/latency lines."
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      ret
        (const run $ domains_arg $ seed_arg $ quiet_arg $ tasks_arg $ requesters_arg
        $ workers_arg $ per_task_arg $ inflight_arg))

(* --- index --- *)

let index_cmd =
  let module Indexer = Zebra_index.Indexer in
  let events_arg =
    let doc = "Also print the decoded chain-event log, oldest first." in
    Arg.(value & flag & info [ "events" ] ~doc)
  in
  let run () seed quiet events =
    (* The shared scenario exercises every transaction kind the protocol
       can mine: two tasks (Instruct and Finalize settlement) plus a full
       reputation-board lifecycle. *)
    let scen = Scenario.build ~seed () in
    let net = scen.Scenario.sys.Protocol.net in
    let idx = Indexer.create () in
    if events then Indexer.subscribe idx (fun ev -> print_endline (Indexer.event_to_string ev));
    let applied = Indexer.sync idx net in
    let h, tip = Indexer.cursor idx in
    if not quiet then begin
      log "indexed %d block(s), %d decoded event(s), %d reorg(s)" applied
        (Indexer.event_count idx) (Indexer.reorg_count idx);
      log "cursor: height=%d tip=%s" h (String.sub tip 0 12);
      (* The cursor is resumable: a second sync against the same chain is
         a no-op, not a re-index. *)
      log "resync: %d block(s) applied (cursor still valid)" (Indexer.sync idx net);
      log ""
    end;
    print_string (Indexing.render (Indexing.of_indexer idx));
    match Indexer.check idx net with
    | Ok () ->
      log "indexer agrees with contract state: true";
      `Ok ()
    | Error why -> `Error (false, "indexer disagrees with contract state: " ^ why)
  in
  let doc =
    "Rebuild task and reputation state purely from chain events: run the canonical \
     two-task marketplace scenario, index its chain through the off-chain \
     event-sourced mirror (resumable cursor, subscription callbacks), print the \
     decoded views and cross-check the mirror byte-for-byte against contract storage. \
     Exits non-zero if the mirror and the chain disagree."
  in
  Cmd.v (Cmd.info "index" ~doc)
    Term.(ret (const run $ domains_arg $ seed_arg $ quiet_arg $ events_arg))

(* --- inspect --- *)

let inspect_cmd =
  let depth_arg =
    Arg.(value & opt int 8 & info [ "depth" ] ~docv:"D" ~doc:"RA tree depth to inspect.")
  in
  let run seed depth =
    let keycache = Zebra_snark.Snark.Keycache.create () in
    log "ZebraLancer system parameters";
    log "  SNARK field        : BN254 scalar (%s...)"
      (String.sub (Zebra_numeric.Nat.to_decimal_string Zebra_field.Fp.modulus) 0 24);
    log "  circuit hash       : %s (default; mimc = ablation arm)"
      (Zebra_hashcomp.Hash_composition.to_string Zebra_hashcomp.Hash_composition.default);
    log "  Poseidon           : t=%d, x^5 S-box, %d full + %d partial rounds"
      Zebra_poseidon.Poseidon.width Zebra_poseidon.Poseidon.full_rounds
      Zebra_poseidon.Poseidon.partial_rounds;
    log "  MiMC               : exponent %d, %d rounds" Zebra_mimc.Mimc.exponent
      Zebra_mimc.Mimc.rounds;
    let cpla = Zebra_anonauth.Cpla.setup_cached keycache ~seed ~depth in
    log "  CPLA (depth %d, %s): %d constraints, vk %d bytes" depth
      (Zebra_hashcomp.Hash_composition.to_string (Zebra_anonauth.Cpla.composition cpla))
      (Zebra_anonauth.Cpla.circuit_size cpla)
      (Bytes.length (Zebra_anonauth.Cpla.vk_to_bytes cpla));
    List.iter
      (fun n ->
        let rc =
          Reward_circuit.setup_cached keycache ~seed ~policy:(Policy.Majority { choices = 4 }) ~n
        in
        log "  majority n=%-2d      : %d constraints, vk %d bytes" n
          (Reward_circuit.num_constraints rc)
          (Bytes.length (Reward_circuit.vk_bytes rc)))
      [ 3; 5 ];
    log "  registered contracts: %s" (String.concat ", " (Contract.registered ()));
    `Ok ()
  in
  let doc = "Print circuit sizes and system parameters." in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(ret (const run $ seed_arg $ depth_arg))

let () =
  Task_contract.register ();
  Ra_contract.register ();
  let doc = "private and anonymous decentralized crowdsourcing (ZebraLancer)" in
  let info = Cmd.info "zebra" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            demo_cmd; annotate_cmd; auction_cmd; batch_cmd; truth_cmd; stats_cmd; lint_cmd;
            chaos_cmd; load_cmd; index_cmd; inspect_cmd;
          ]))
