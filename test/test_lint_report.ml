(* The report formats, pinned: one circuit report (an Error, Warn and Info
   finding, with elision), one tx-kind report and one codec report, each
   rendered as text, JSON and SARIF and compared byte for byte with the
   expected strings below.  Every fixture is deterministic: the circuit
   has fixed values, the tx kind runs on a wallet from a fixed ChaCha20
   seed, and the codec case scans fixed bytes. *)

open Zebra_field
open Zebra_r1cs
module Lint = Zebra_lint.Lint
module Txlint = Zebra_lint.Txlint
module Seclint = Zebra_lint.Seclint
module Json = Zebra_obs.Json
module Tx = Zebra_chain.Tx
module State = Zebra_chain.State
module Wallet = Zebra_chain.Wallet
module Address = Zebra_chain.Address

(* Two unused public inputs (ZL002, one elided at [max_per_rule:1]), an
   orphan witness (ZL001), a constant identity (ZL010), a row that is
   twice an earlier one (ZL012) and the free wire it leaves (ZL020/21). *)
let circuit_report () =
  let cs = Cs.create () in
  let _ghost1 = Cs.alloc_input cs ~label:"ghost1" (Fp.of_int 3) in
  let _ghost2 = Cs.alloc_input cs ~label:"ghost2" (Fp.of_int 4) in
  let a = Cs.alloc cs ~label:"a" (Fp.of_int 2) and b = Cs.alloc cs ~label:"b" (Fp.of_int 3) in
  let _orphan = Cs.alloc cs ~label:"orphan" (Fp.of_int 9) in
  let open Gadgets in
  enforce_eq cs ~label:"sum" (v a +: v b) (ci 5);
  enforce_eq cs ~label:"twice the sum"
    (scale (Fp.of_int 2) (v a) +: scale (Fp.of_int 2) (v b))
    (ci 10);
  Cs.enforce cs ~label:"vacuous" [] [] [];
  Lint.analyze ~name:"fixture-circuit" cs

(* Two transfers of one kind: one declares an extra address that nothing
   touches (ZL102), the other overdraws and fails (ZL103). *)
let tx_report () =
  let rng = Zebra_rng.Chacha20.create ~seed:"test_lint_report" in
  let wallet = Wallet.generate ~random_bytes:(Zebra_rng.Chacha20.bytes rng) () in
  let sender = Wallet.address wallet in
  let st = State.create ~genesis:[ (sender, 100) ] in
  let rec fresh used k =
    let a = Address.of_creator sender k in
    if List.mem (State.shard_of_address a) used then fresh used (k + 1) else a
  in
  let payee = fresh [ State.shard_of_address sender ] 0 in
  let unused =
    fresh [ State.shard_of_address sender; State.shard_of_address payee ] 0
  in
  let transfer ~footprint ~value =
    Tx.make_ext ~wallet ~fee:0 ~footprint ~nonce:0 ~dst:(Tx.Call payee) ~value
      ~payload:Bytes.empty
  in
  let kind = "fixture.transfer" in
  Txlint.analyze ~kind
    [
      Txlint.trace_case ~kind ~case:"declared extra" st ~height:1
        (transfer ~footprint:[ unused ] ~value:5);
      Txlint.trace_case ~kind ~case:"overdraw" st ~height:1
        (transfer ~footprint:[] ~value:1_000);
    ]

(* A 32-byte canary leaked into a serialisation (ZL201) and a 4-byte one
   too short to scan for (ZL202). *)
let codec_report () =
  let canary = Bytes.init 32 (fun i -> Char.chr (65 + i)) in
  Seclint.analyze
    {
      Seclint.codec = "fixture.codec";
      secrets = [ ("fixture.trapdoor", canary); ("fixture.stub", Bytes.of_string "wxyz") ];
      outputs =
        [
          (Seclint.Serialization, "encoder", Bytes.cat (Bytes.make 8 '\000') canary);
          (Seclint.Log_line, "log", Bytes.of_string "nothing to see");
        ];
    }

(* --- expected output --- *)

let sarif_rules =
  [
    {|{"id":"ZL001","name":"unconstrained-wire","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL002","name":"unused-public-input","defaultConfiguration":{"level":"warning"}}|};
    {|{"id":"ZL010","name":"trivial-constraint","defaultConfiguration":{"level":"warning"}}|};
    {|{"id":"ZL011","name":"duplicate-constraint","defaultConfiguration":{"level":"warning"}}|};
    {|{"id":"ZL012","name":"linearly-dependent-constraint","defaultConfiguration":{"level":"note"}}|};
    {|{"id":"ZL013","name":"unsatisfiable-constant-constraint","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL020","name":"rank-deficient-system","defaultConfiguration":{"level":"warning"}}|};
    {|{"id":"ZL021","name":"underdetermined-wire","defaultConfiguration":{"level":"warning"}}|};
    {|{"id":"ZL030","name":"missing-booleanity","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL031","name":"broken-bit-recomposition","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL101","name":"under-declared-footprint","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL102","name":"over-declared-footprint","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL103","name":"vacuous-tx-case","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL110","name":"shard-conflict-signature","defaultConfiguration":{"level":"note"}}|};
    {|{"id":"ZL201","name":"secret-leaked-to-sink","defaultConfiguration":{"level":"error"}}|};
    {|{"id":"ZL202","name":"secret-canary-too-short","defaultConfiguration":{"level":"warning"}}|};
  ]

let circuit_sarif_results =
  [
    {|{"ruleId":"ZL001","level":"error","message":{"text":"wire 5: witness wire 5 (orphan) appears in no constraint (nonzero coefficient): the prover may assign it freely"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
    {|{"ruleId":"ZL002","level":"warning","message":{"text":"wire 1: public input wire 1 (ghost1) appears in no constraint: the verifier checks a value the circuit never reads"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
    {|{"ruleId":"ZL002","level":"warning","message":{"text":"wire 2: public input wire 2 (ghost2) appears in no constraint: the verifier checks a value the circuit never reads"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
    {|{"ruleId":"ZL010","level":"warning","message":{"text":"constraint #2: constraint touches only the constant wire and is identically satisfied"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
    {|{"ruleId":"ZL012","level":"note","message":{"text":"constraint #1: linearisation at the sampled assignment is a linear combination of earlier constraints: it adds no first-order binding power"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
    {|{"ruleId":"ZL020","level":"warning","message":{"text":"Jacobian rank 1 leaves 1 of 3 auxiliary wires underdetermined at the sampled assignment"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
    {|{"ruleId":"ZL021","level":"warning","message":{"text":"wire 3: wire 3 (a) is not uniquely determined by the public inputs at the sampled assignment (to first order): the prover has a degree of freedom here"},"locations":[{"logicalLocations":[{"name":"circuit:fixture-circuit"}]}]}|};
  ]

let circuit_json =
  String.concat ""
    [
      {|{"circuit":"fixture-circuit","num_vars":6,"num_inputs":2,"num_constraints":3,"jacobian_rank":1,"free_aux_wires":1,"counts":{"error":1,"warn":5,"info":1},"findings":[|};
      String.concat ","
        [
          {|{"rule":"ZL001","name":"unconstrained-wire","severity":"error","wire":5,"wire_label":"orphan","constraint":null,"constraint_label":null,"message":"witness wire 5 (orphan) appears in no constraint (nonzero coefficient): the prover may assign it freely"}|};
          {|{"rule":"ZL002","name":"unused-public-input","severity":"warn","wire":1,"wire_label":"ghost1","constraint":null,"constraint_label":null,"message":"public input wire 1 (ghost1) appears in no constraint: the verifier checks a value the circuit never reads"}|};
          {|{"rule":"ZL002","name":"unused-public-input","severity":"warn","wire":2,"wire_label":"ghost2","constraint":null,"constraint_label":null,"message":"public input wire 2 (ghost2) appears in no constraint: the verifier checks a value the circuit never reads"}|};
          {|{"rule":"ZL010","name":"trivial-constraint","severity":"warn","wire":null,"wire_label":null,"constraint":2,"constraint_label":"vacuous","message":"constraint touches only the constant wire and is identically satisfied"}|};
          {|{"rule":"ZL012","name":"linearly-dependent-constraint","severity":"info","wire":null,"wire_label":null,"constraint":1,"constraint_label":"twice the sum","message":"linearisation at the sampled assignment is a linear combination of earlier constraints: it adds no first-order binding power"}|};
          {|{"rule":"ZL020","name":"rank-deficient-system","severity":"warn","wire":null,"wire_label":null,"constraint":null,"constraint_label":null,"message":"Jacobian rank 1 leaves 1 of 3 auxiliary wires underdetermined at the sampled assignment"}|};
          {|{"rule":"ZL021","name":"underdetermined-wire","severity":"warn","wire":3,"wire_label":"a","constraint":null,"constraint_label":null,"message":"wire 3 (a) is not uniquely determined by the public inputs at the sampled assignment (to first order): the prover has a degree of freedom here"}|};
        ];
      {|]}|};
    ]

let circuit_text =
  {|fixture-circuit: 6 vars (2 inputs), 3 constraints, rank 1, 1 free -- 1 error(s), 5 warn(s), 1 info(s)
  [ZL001 error] wire 5 (orphan): witness wire 5 (orphan) appears in no constraint (nonzero coefficient): the prover may assign it freely
  [ZL002 warn] wire 1 (ghost1): public input wire 1 (ghost1) appears in no constraint: the verifier checks a value the circuit never reads
  [ZL002 warn]: ... and 1 more
  [ZL010 warn] constraint #2 (vacuous): constraint touches only the constant wire and is identically satisfied
  [ZL012 info] constraint #1 (twice the sum): linearisation at the sampled assignment is a linear combination of earlier constraints: it adds no first-order binding power
  [ZL020 warn]: Jacobian rank 1 leaves 1 of 3 auxiliary wires underdetermined at the sampled assignment
  [ZL021 warn] wire 3 (a): wire 3 (a) is not uniquely determined by the public inputs at the sampled assignment (to first order): the prover has a degree of freedom here
|}

let tx_sarif_results =
  [
    {|{"ruleId":"ZL102","level":"error","message":{"text":"declared footprint address 6fe8e043bb8a6f469f1a49e416c85d42d272dabd (shard 15) is never accessed on any analysed path — the declaration serialises waves for nothing"},"locations":[{"logicalLocations":[{"name":"tx:fixture.transfer"}]}]}|};
    {|{"ruleId":"ZL103","level":"error","message":{"text":"case overdraw failed (insufficient funds): the contract branch this case was meant to cover was never explored"},"locations":[{"logicalLocations":[{"name":"tx:fixture.transfer"}]}]}|};
    {|{"ruleId":"ZL110","level":"note","message":{"text":"2 case(s): shards accessed {25,26}, declared {15,25,26}"},"locations":[{"logicalLocations":[{"name":"tx:fixture.transfer"}]}]}|};
  ]

let tx_json =
  String.concat ""
    [
      {|{"kind":"fixture.transfer","cases":2,"accessed_shards":[25,26],"declared_shards":[15,25,26],"counts":{"error":2,"warn":0,"info":1},"findings":[|};
      String.concat ","
        [
          {|{"rule":"ZL102","name":"over-declared-footprint","severity":"error","wire":null,"wire_label":null,"constraint":null,"constraint_label":null,"message":"declared footprint address 6fe8e043bb8a6f469f1a49e416c85d42d272dabd (shard 15) is never accessed on any analysed path — the declaration serialises waves for nothing"}|};
          {|{"rule":"ZL103","name":"vacuous-tx-case","severity":"error","wire":null,"wire_label":null,"constraint":null,"constraint_label":null,"message":"case overdraw failed (insufficient funds): the contract branch this case was meant to cover was never explored"}|};
          {|{"rule":"ZL110","name":"shard-conflict-signature","severity":"info","wire":null,"wire_label":null,"constraint":null,"constraint_label":null,"message":"2 case(s): shards accessed {25,26}, declared {15,25,26}"}|};
        ];
      {|]}|};
    ]

let tx_text =
  {|fixture.transfer: 2 case(s), shards accessed {25,26} declared {15,25,26} -- 2 error(s), 0 warn(s), 1 info(s)
  [ZL102 error]: declared footprint address 6fe8e043bb8a6f469f1a49e416c85d42d272dabd (shard 15) is never accessed on any analysed path — the declaration serialises waves for nothing
  [ZL103 error]: case overdraw failed (insufficient funds): the contract branch this case was meant to cover was never explored
  [ZL110 info]: 2 case(s): shards accessed {25,26}, declared {15,25,26}
|}

let codec_sarif_results =
  [
    {|{"ruleId":"ZL201","level":"error","message":{"text":"secret fixture.trapdoor reaches the serialization sink encoder: its canary bytes occur in the output (40 bytes scanned)"},"locations":[{"logicalLocations":[{"name":"codec:fixture.codec"}]}]}|};
    {|{"ruleId":"ZL202","level":"warning","message":{"text":"canary of secret fixture.stub is 4 byte(s), below the scannable minimum of 8: this case cannot detect a leak of it"},"locations":[{"logicalLocations":[{"name":"codec:fixture.codec"}]}]}|};
  ]

let codec_json =
  String.concat ""
    [
      {|{"codec":"fixture.codec","secrets":2,"outputs":2,"counts":{"error":1,"warn":1,"info":0},"findings":[|};
      String.concat ","
        [
          {|{"rule":"ZL201","name":"secret-leaked-to-sink","severity":"error","wire":null,"wire_label":null,"constraint":null,"constraint_label":null,"message":"secret fixture.trapdoor reaches the serialization sink encoder: its canary bytes occur in the output (40 bytes scanned)"}|};
          {|{"rule":"ZL202","name":"secret-canary-too-short","severity":"warn","wire":null,"wire_label":null,"constraint":null,"constraint_label":null,"message":"canary of secret fixture.stub is 4 byte(s), below the scannable minimum of 8: this case cannot detect a leak of it"}|};
        ];
      {|]}|};
    ]

let codec_text =
  {|fixture.codec: 2 secret(s) against 2 output(s) -- 1 error(s), 1 warn(s)
  [ZL201 error]: secret fixture.trapdoor reaches the serialization sink encoder: its canary bytes occur in the output (40 bytes scanned)
  [ZL202 warn]: canary of secret fixture.stub is 4 byte(s), below the scannable minimum of 8: this case cannot detect a leak of it
|}

let sarif results =
  String.concat ""
    [
      {|{"$schema":"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"zebra-lint","rules":[|};
      String.concat "," sarif_rules;
      {|]}},"results":[|};
      String.concat "," results;
      {|]}]}|};
    ]

let check_formats ~text ~json ~sarif_results (got_text, got_json, got_sarif) =
  Alcotest.(check string) "text" text got_text;
  Alcotest.(check string) "json" json (Json.to_string got_json);
  Alcotest.(check string) "sarif" (sarif sarif_results) (Json.to_string got_sarif)

let test_circuit () =
  let r = circuit_report () in
  check_formats ~text:circuit_text ~json:circuit_json ~sarif_results:circuit_sarif_results
    (Lint.render ~max_per_rule:1 r, Lint.to_json r, Lint.to_sarif [ r ])

let test_tx_kind () =
  let r = tx_report () in
  check_formats ~text:tx_text ~json:tx_json ~sarif_results:tx_sarif_results
    (Lint.render r, Lint.to_json r, Lint.to_sarif [ r ])

let test_codec () =
  let r = codec_report () in
  check_formats ~text:codec_text ~json:codec_json ~sarif_results:codec_sarif_results
    (Lint.render r, Lint.to_json r, Lint.to_sarif [ r ])

let () =
  Alcotest.run "lint_report"
    [
      ( "format",
        [
          Alcotest.test_case "circuit report" `Quick test_circuit;
          Alcotest.test_case "tx-kind report" `Quick test_tx_kind;
          Alcotest.test_case "codec report" `Quick test_codec;
        ] );
    ]
