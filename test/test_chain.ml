(* Blockchain substrate tests: transactions, contract runtime, replicated
   execution, adversarial reordering, and ledger invariants. *)

open Zebra_chain
module Codec = Zebra_codec.Codec

let rng = Zebra_rng.Chacha20.create ~seed:"test_chain"
let random_bytes n = Zebra_rng.Chacha20.bytes rng n

(* Wallet creation is RSA keygen; reuse a pool across tests. *)
let wallet_pool = lazy (Array.init 6 (fun _ -> Wallet.generate ~bits:512 ~random_bytes ()))

let wallet i = (Lazy.force wallet_pool).(i)

(* --- Toy contracts for runtime tests --- *)

(* A counter: payload "inc" increments; "get" logs the value; init arg sets
   the start; "boom" reverts. *)
module Counter = struct
  type storage = int

  let name = "test-counter"
  let init _ctx args = if Bytes.length args = 0 then 0 else Codec.decode Codec.read_u64 args

  let receive ctx st payload =
    match Bytes.to_string payload with
    | "inc" -> (st + 1, [])
    | "get" -> (st, [ Contract.Log (string_of_int st) ])
    | "boom" -> raise (Contract.Revert "boom")
    | "height" -> (st, [ Contract.Log (string_of_int ctx.Contract.height) ])
    | _ -> raise (Contract.Revert "unknown method")

  let encode st = Codec.encode Codec.u64 st
  let decode b = Codec.decode Codec.read_u64 b
end

(* Escrow: deposits held; payload = 20-byte payee address releases all. *)
module Escrow = struct
  type storage = unit

  let name = "test-escrow"
  let init _ _ = ()

  let receive ctx () payload =
    if Bytes.length payload <> 20 then raise (Contract.Revert "bad payee")
    else ((), [ Contract.Transfer (Address.of_bytes payload, ctx.Contract.self_balance) ])

  let encode () = Bytes.empty
  let decode _ = ()
end

(* Armed: a call raises [Failure] (not a revert) until "arm" arrives;
   then it logs "called". *)
module Armed = struct
  type storage = bool

  let name = "test-armed"
  let init _ _ = false

  let receive _ctx armed payload =
    match Bytes.to_string payload with
    | "arm" -> (true, [])
    | _ -> if armed then (armed, [ Contract.Log "called" ]) else failwith "not armed"

  let encode armed = Bytes.make 1 (if armed then '\001' else '\000')
  let decode b = Bytes.get b 0 = '\001'
end

let () = Contract.register (module Counter)
let () = Contract.register (module Escrow)
let () = Contract.register (module Armed)

let fresh_net ?(num_nodes = 3) ?(fund = [ 0; 1; 2 ]) () =
  let genesis = List.map (fun i -> (Wallet.address (wallet i), 1_000_000)) fund in
  Network.create ~num_nodes ~genesis ()

let check_ok (r : State.receipt) =
  match r.State.status with
  | State.Ok _ -> ()
  | State.Failed e -> Alcotest.failf "tx failed: %s" e

let created (r : State.receipt) =
  match r.State.status with
  | State.Ok (Some a) -> a
  | _ -> Alcotest.fail "expected contract creation"

(* --- Address / Tx --- *)

let test_address_derivation () =
  let w = wallet 0 in
  let a = Wallet.address w in
  Alcotest.(check int) "hex length" 40 (String.length (Address.to_hex a));
  Alcotest.(check bool) "deterministic contract addr" true
    (Address.equal (Address.of_creator a 3) (Address.of_creator a 3));
  Alcotest.(check bool) "nonce changes addr" false
    (Address.equal (Address.of_creator a 3) (Address.of_creator a 4))

let test_tx_roundtrip () =
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:42
      ~payload:(Bytes.of_string "hello")
  in
  Alcotest.(check bool) "validates" true (Tx.validate tx);
  let tx' = Tx.of_bytes (Tx.to_bytes tx) in
  Alcotest.(check bool) "roundtrip validates" true (Tx.validate tx');
  Alcotest.(check bytes) "same hash" (Tx.hash tx) (Tx.hash tx')

(* [size_bytes] is carried with the value, not re-encoded: it must still
   be the length of the encoding, for every constructor. *)
let test_tx_size_is_wire_length () =
  let tx =
    Tx.make_ext ~wallet:(wallet 0) ~fee:3 ~footprint:[] ~nonce:7
      ~dst:(Tx.Create { behavior = "escrow"; args = Bytes.make 40 'a' }) ~value:5
      ~payload:(Bytes.make 1500 'p')
  in
  List.iter
    (fun (what, tx) ->
      Alcotest.(check int) what (Bytes.length (Tx.to_bytes tx)) (Tx.size_bytes tx))
    [
      ("make_ext", tx);
      ("of_bytes", Tx.of_bytes (Tx.to_bytes tx));
      ("resend_as", Tx.resend_as ~wallet:(wallet 1) ~nonce:0 tx);
    ]

(* A transaction declares no access set: [make_ext] keeps its
   [~footprint] argument for old callers, and only the empty list. *)
let test_make_ext_rejects_footprint () =
  Alcotest.check_raises "non-empty footprint"
    (Invalid_argument "Tx.make_ext: a transaction declares no footprint") (fun () ->
      ignore
        (Tx.make_ext ~wallet:(wallet 0) ~fee:0
           ~footprint:[ Wallet.address (wallet 2) ]
           ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1 ~payload:Bytes.empty))

let test_tx_tamper () =
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:42
      ~payload:Bytes.empty
  in
  let b = Tx.to_bytes tx in
  (* Flip a bit inside the value field region; signature must fail. *)
  Bytes.set b (Bytes.length b - 70) (Char.chr (Char.code (Bytes.get b (Bytes.length b - 70)) lxor 1));
  match Tx.of_bytes b with
  | tx' -> Alcotest.(check bool) "tampered rejected" false (Tx.validate tx')
  | exception _ -> () (* decode failure is equally a rejection *)

(* --- Transfers & ledger --- *)

let test_plain_transfer () =
  let net = fresh_net () in
  let a0 = Wallet.address (wallet 0) and a1 = Wallet.address (wallet 1) in
  let tx = Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:500 ~payload:Bytes.empty in
  Network.submit net tx;
  List.iter check_ok (Network.mine net);
  Alcotest.(check int) "sender debited" 999_500 (Network.balance net a0);
  Alcotest.(check int) "receiver credited" 1_000_500 (Network.balance net a1)

let test_insufficient_funds () =
  let net = fresh_net () in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1)))
      ~value:2_000_000 ~payload:Bytes.empty
  in
  Network.submit net tx;
  (match Network.mine net with
  | [ { State.status = State.Failed "insufficient funds"; _ } ] -> ()
  | _ -> Alcotest.fail "expected failure");
  Alcotest.(check int) "no debit" 1_000_000 (Network.balance net (Wallet.address (wallet 0)))

let test_nonce_enforcement () =
  let net = fresh_net () in
  let mk nonce =
    Tx.make ~wallet:(wallet 0) ~nonce ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  Network.submit net (mk 5);
  (match Network.mine net with
  | [ { State.status = State.Failed "bad nonce"; _ } ] -> ()
  | _ -> Alcotest.fail "expected bad nonce");
  (* replay protection: same tx twice *)
  let tx = mk 0 in
  Network.submit net tx;
  Network.submit net tx;
  match Network.mine net with
  | [ r1; r2 ] ->
    check_ok r1;
    (match r2.State.status with
    | State.Failed "bad nonce" -> ()
    | _ -> Alcotest.fail "replay accepted")
  | _ -> Alcotest.fail "expected two receipts"

let test_supply_conservation () =
  let net = fresh_net () in
  let before = Network.total_supply net in
  List.iteri
    (fun i dst ->
      Network.submit net
        (Tx.make ~wallet:(wallet 0) ~nonce:i ~dst:(Tx.Call (Wallet.address (wallet dst)))
           ~value:(100 * (i + 1)) ~payload:Bytes.empty))
    [ 1; 2; 1 ];
  ignore (Network.mine net);
  Alcotest.(check int) "conserved" before (Network.total_supply net)

(* --- Contracts --- *)

let test_contract_lifecycle () =
  let net = fresh_net () in
  let create =
    Tx.make ~wallet:(wallet 0) ~nonce:0
      ~dst:(Tx.Create { behavior = "test-counter"; args = Codec.encode Codec.u64 10 })
      ~value:0 ~payload:Bytes.empty
  in
  Network.submit net create;
  let addr =
    match Network.mine net with [ r ] -> created r | _ -> Alcotest.fail "one receipt"
  in
  Alcotest.(check bool) "is contract" true (Network.is_contract net addr);
  List.iter
    (fun _ ->
      Network.submit net
        (Tx.make ~wallet:(wallet 1) ~nonce:(Network.nonce net (Wallet.address (wallet 1)))
           ~dst:(Tx.Call addr) ~value:0 ~payload:(Bytes.of_string "inc"));
      List.iter check_ok (Network.mine net))
    [ (); (); () ];
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:(Network.nonce net (Wallet.address (wallet 1)))
       ~dst:(Tx.Call addr) ~value:0 ~payload:(Bytes.of_string "get"));
  (match Network.mine net with
  | [ { State.logs = [ v ]; _ } ] -> Alcotest.(check string) "counter" "13" v
  | _ -> Alcotest.fail "expected one log");
  Alcotest.(check int) "height visible to contract" 5 (Network.height net)

let test_unknown_behavior () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "no-such-contract"; args = Bytes.empty })
       ~value:0 ~payload:Bytes.empty);
  match Network.mine net with
  | [ { State.status = State.Failed msg; _ } ] ->
    Alcotest.(check string) "reason" "unknown behavior no-such-contract" msg
  | _ -> Alcotest.fail "expected failure"

let test_revert_rolls_back () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-counter"; args = Bytes.empty })
       ~value:100 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  let before = Network.balance net (Wallet.address (wallet 0)) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:1 ~dst:(Tx.Call addr) ~value:50
       ~payload:(Bytes.of_string "boom"));
  (match Network.mine net with
  | [ { State.status = State.Failed "boom"; _ } ] -> ()
  | _ -> Alcotest.fail "expected revert");
  Alcotest.(check int) "value returned on revert" before
    (Network.balance net (Wallet.address (wallet 0)));
  Alcotest.(check int) "nonce still advanced" 2 (Network.nonce net (Wallet.address (wallet 0)))

(* A behaviour that raises keeps the nonce advance, as a revert does: the
   failed call consumed nonce 0, so its signed bytes cannot run again once
   the contract would accept them. *)
let test_exception_keeps_nonce () =
  let net = fresh_net () in
  let caller = Wallet.address (wallet 1) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-armed"; args = Bytes.empty })
       ~value:0 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  let call =
    Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call addr) ~value:7
      ~payload:(Bytes.of_string "call")
  in
  let before = Network.balance net caller in
  Network.submit net call;
  let first = Network.mine net in
  (match first with
  | [ { State.status = State.Failed "exception: Failure(\"not armed\")"; _ } ] -> ()
  | _ -> Alcotest.fail "expected the exception's failure receipt");
  Alcotest.(check int) "nonce advanced" 1 (Network.nonce net caller);
  Alcotest.(check int) "value returned" before (Network.balance net caller);
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:1 ~dst:(Tx.Call addr) ~value:0
       ~payload:(Bytes.of_string "arm"));
  List.iter check_ok (Network.mine net);
  Network.submit net call;
  (match Network.mine net with
  | [ { State.status = State.Failed "bad nonce"; _ } ] -> ()
  | _ -> Alcotest.fail "the rebroadcast call ran again");
  Alcotest.(check (list string)) "the contract never logged" [] (Network.all_logs net);
  Alcotest.(check bool) "the first receipt stays canonical" true
    (Network.receipt net (Tx.hash call) = Some (List.hd first));
  Alcotest.(check bytes) "replay agrees" (Network.state_root net) (Network.replay net)

let test_escrow_transfer_action () =
  let net = fresh_net () in
  let payee = Wallet.address (wallet 2) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-escrow"; args = Bytes.empty })
       ~value:700 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  Alcotest.(check int) "escrow funded" 700 (Network.balance net addr);
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call addr) ~value:0
       ~payload:(Address.to_bytes payee));
  List.iter check_ok (Network.mine net);
  Alcotest.(check int) "payee received" 1_000_700 (Network.balance net payee);
  Alcotest.(check int) "escrow drained" 0 (Network.balance net addr)

(* --- Replication & consensus --- *)

let test_replicas_agree () =
  let net = fresh_net ~num_nodes:4 () in
  for i = 0 to 5 do
    Network.submit net
      (Tx.make ~wallet:(wallet 0) ~nonce:i ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:7
         ~payload:Bytes.empty);
    ignore (Network.mine net)
  done;
  (* Network.mine raises Consensus_failure on divergence; reaching here with
     4 replicas is the assertion. *)
  Alcotest.(check int) "height" 6 (Network.height net)

(* The block hook runs before the block forms; one that mines moves the
   tip under the block being mined, which must fail loudly. *)
let test_mining_hook_rejected () =
  let net = fresh_net () in
  let fired = ref false in
  Network.set_block_hook net
    (Some
       (fun ~height:_ ->
         if not !fired then begin
           fired := true;
           ignore (Network.mine net)
         end));
  match Network.mine net with
  | _ -> Alcotest.fail "a block hook that mines went unnoticed"
  | exception Network.Consensus_failure _ ->
    Alcotest.(check int) "inner block only" 1 (Network.height net)

let test_adversary_reorder () =
  (* The adversary reverses the block order: the later-submitted transfer
     executes first.  Both still execute; balances must reflect the
     adversary's order (nonce forces a unique valid serialisation here, so
     we use two different senders). *)
  let net = fresh_net () in
  Network.set_adversary net (Some List.rev);
  let a2 = Wallet.address (wallet 2) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a2) ~value:1 ~payload:Bytes.empty);
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call a2) ~value:2 ~payload:Bytes.empty);
  List.iter check_ok (Network.mine net);
  Alcotest.(check int) "both executed" 1_000_003 (Network.balance net a2)

let test_adversary_cannot_forge () =
  let net = fresh_net () in
  (* Adversary injects a doctored transaction: it is filtered out. *)
  let doctored =
    let tx =
      Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
        ~payload:Bytes.empty
    in
    let b = Tx.to_bytes tx in
    Bytes.set b 60 (Char.chr (Char.code (Bytes.get b 60) lxor 1));
    try Some (Tx.of_bytes b) with _ -> None
  in
  Network.set_adversary net
    (Some (fun txs -> match doctored with Some d -> d :: txs | None -> txs));
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:5
       ~payload:Bytes.empty);
  let receipts = Network.mine net in
  Alcotest.(check int) "only the honest tx executed" 1 (List.length receipts)

(* Regression for the set_adversary contract: a duplicated transaction is
   mined twice but executes once — the copy fails nonce replay and the
   canonical receipt stays the first, successful one. *)
let test_adversary_duplicate_rejected () =
  let net = fresh_net () in
  Network.set_adversary net (Some (fun txs -> txs @ txs));
  let a1 = Wallet.address (wallet 1) in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:5 ~payload:Bytes.empty
  in
  Network.submit net tx;
  let receipts = Network.mine net in
  Alcotest.(check int) "both copies mined" 2 (List.length receipts);
  Alcotest.(check int) "value moved exactly once" 1_000_005 (Network.balance net a1);
  Alcotest.(check int) "sender nonce advanced once" 1
    (Network.nonce net (Wallet.address (wallet 0)));
  match Network.receipt net (Tx.hash tx) with
  | Some { State.status = State.Ok _; _ } -> ()
  | Some { State.status = State.Failed e; _ } ->
    Alcotest.failf "canonical receipt overwritten by the duplicate: %s" e
  | None -> Alcotest.fail "no receipt recorded"

(* Regression for the other half of the contract: an omitted transaction is
   requeued, so the adversary can delay but not censor. *)
let test_adversary_drop_requeues () =
  let net = fresh_net () in
  let calls = ref 0 in
  Network.set_adversary net
    (Some (fun txs -> (incr calls; if !calls = 1 then [] else txs)));
  let a1 = Wallet.address (wallet 1) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:3 ~payload:Bytes.empty);
  let r1 = Network.mine net in
  Alcotest.(check int) "censored block is empty" 0 (List.length r1);
  Alcotest.(check int) "tx back in the mempool" 1 (Network.pending net);
  Alcotest.(check int) "no transfer yet" 1_000_000 (Network.balance net a1);
  let r2 = Network.mine net in
  Alcotest.(check int) "included in the next block" 1 (List.length r2);
  Alcotest.(check int) "delayed, not censored" 1_000_003 (Network.balance net a1)

let test_block_chain_integrity () =
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  ignore (Network.mine net);
  match Network.blocks net with
  | [ b1; b2 ] ->
    Alcotest.(check bytes) "linkage" (Block.hash b1) b2.Block.header.Block.prev_hash;
    Alcotest.(check int) "heights" 1 b1.Block.header.Block.height
  | _ -> Alcotest.fail "expected two blocks"

let test_tx_inclusion_proof () =
  let net = fresh_net () in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  Network.submit net tx;
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:1
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  let b = List.hd (Network.blocks net) in
  let proof = Block.tx_proof b 0 in
  let lc = Light_client.create () in
  (match Light_client.sync lc (Network.blocks net) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "light-client sync: %s" e);
  Alcotest.(check bool) "inclusion verifies" true
    (Light_client.verify_inclusion lc ~height:b.Block.header.Block.height tx proof)

let test_replay_determinism () =
  (* A late-joining node replays all blocks from genesis and must arrive at
     the exact same state root (the ledger's "correct computation"). *)
  let net = fresh_net () in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-counter"; args = Bytes.empty })
       ~value:100 ~payload:Bytes.empty);
  let addr = created (List.hd (Network.mine net)) in
  List.iteri
    (fun i payload ->
      Network.submit net
        (Tx.make ~wallet:(wallet 1) ~nonce:i ~dst:(Tx.Call addr) ~value:0
           ~payload:(Bytes.of_string payload));
      ignore (Network.mine net))
    [ "inc"; "inc"; "boom"; "get" ];
  Alcotest.(check bytes) "replayed root equals live root" (Network.state_root net)
    (Network.replay net)

let test_mine_until () =
  let net = fresh_net () in
  Network.mine_until net ~height:10;
  Alcotest.(check int) "height reached" 10 (Network.height net)

(* --- Fee-ordered mempool & sharded parallel execution --- *)

let qtest name ~count gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let with_domains n f =
  let prev = Zebra_parallel.Parallel.default_domains () in
  Fun.protect
    ~finally:(fun () -> Zebra_parallel.Parallel.set_default_domains prev)
    (fun () ->
      Zebra_parallel.Parallel.set_default_domains n;
      f ())

let last_block net =
  match List.rev (Network.blocks net) with
  | b :: _ -> b
  | [] -> Alcotest.fail "no blocks mined"

let applied_ok = function
  | Network.Applied r -> check_ok r
  | Network.Conflict_retry _ -> Alcotest.fail "classified Conflict_retry"
  | Network.Rejected e -> Alcotest.failf "tx rejected: %s" e

let test_fee_ordering () =
  let net = fresh_net () in
  let a3 = Wallet.address (wallet 3) in
  let mk i fee value =
    Tx.make_ext ~wallet:(wallet i) ~fee ~footprint:[] ~nonce:0 ~dst:(Tx.Call a3) ~value
      ~payload:Bytes.empty
  in
  (* Submission order low / high / mid; the seal must order by fee. *)
  let t_low = mk 0 1 1 and t_high = mk 1 9 2 and t_mid = mk 2 5 3 in
  List.iter (Network.submit net) [ t_low; t_high; t_mid ];
  let results = Network.mine_ext net in
  Alcotest.(check int) "three outcomes" 3 (List.length results);
  List.iter applied_ok results;
  let order = List.map Tx.hash (last_block net).Block.txs in
  Alcotest.(check (list bytes))
    "sealed fee-descending" [ Tx.hash t_high; Tx.hash t_mid; Tx.hash t_low ] order;
  Alcotest.(check int) "all three transferred" 6 (Network.balance net a3)

let test_fee_ordering_keeps_nonce_lanes () =
  (* Same sender, fees inverted relative to nonces: fee ordering must not
     break the sender's nonce sequence. *)
  let net = fresh_net () in
  let a3 = Wallet.address (wallet 3) in
  let mk nonce fee value =
    Tx.make_ext ~wallet:(wallet 0) ~fee ~footprint:[] ~nonce ~dst:(Tx.Call a3) ~value
      ~payload:Bytes.empty
  in
  let t0 = mk 0 0 10 and t1 = mk 1 9 20 in
  Network.submit net t0;
  Network.submit net t1;
  let results = Network.mine_ext net in
  List.iter applied_ok results;
  let order = List.map Tx.hash (last_block net).Block.txs in
  Alcotest.(check (list bytes)) "nonce order survives fee inversion"
    [ Tx.hash t0; Tx.hash t1 ] order;
  Alcotest.(check int) "both executed" 30 (Network.balance net a3)

let test_submit_r_typed_rejection () =
  let net = fresh_net () in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  (match Network.submit_r net tx with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid tx refused: %s" (Network.submit_error_to_string e));
  let b = Tx.to_bytes tx in
  Bytes.set b 60 (Char.chr (Char.code (Bytes.get b 60) lxor 1));
  match Tx.of_bytes b with
  | exception _ -> () (* decode failure is equally a rejection *)
  | doctored -> (
    match Network.submit_r net doctored with
    | Error Network.Invalid_signature -> ()
    | Ok () -> Alcotest.fail "tampered tx accepted")

(* A peer controls every byte of a transaction, the sender key included.
   Re-key a valid transaction to a 256-bit sender (too short for
   EMSA-PKCS1-v1_5 with SHA-256) with a matching address and a
   key-length signature below the modulus: admission must refuse it as a
   bad signature, not raise.  The splice relies only on the sender
   address and key leading the encoding and the signature ending it. *)
let test_short_sender_key_rejected () =
  let module Rsa = Zebra_rsa.Rsa in
  let short =
    Rsa.generate ~bits:256
      ~random_bytes:(Zebra_rng.Chacha20.bytes (Zebra_rng.Chacha20.create ~seed:"short-key"))
  in
  let pk = short.Rsa.pub in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  let b = Tx.to_bytes tx in
  let head = 4 + 20 + 4 + Bytes.length (Rsa.public_key_to_bytes tx.Tx.sender_pk) in
  let tail = 4 + Bytes.length tx.Tx.signature in
  let body = Bytes.sub b head (Bytes.length b - head - tail) in
  let signature = Bytes.make (Rsa.key_bytes pk) '\000' in
  Bytes.set signature (Bytes.length signature - 1) '\002';
  let w = Codec.writer () in
  Codec.bytes w (Address.to_bytes (Address.of_public_key pk));
  Codec.bytes w (Rsa.public_key_to_bytes pk);
  let wire = Bytes.concat Bytes.empty [ Codec.to_bytes w; body; Codec.encode Codec.bytes signature ] in
  let forged = Tx.of_bytes wire in
  Alcotest.(check bool) "decoded with the short key" true (Rsa.equal_public_key pk forged.Tx.sender_pk);
  Alcotest.(check bool) "validate is false" false (Tx.validate forged);
  match Network.submit_r (fresh_net ()) forged with
  | Error Network.Invalid_signature -> ()
  | Ok () -> Alcotest.fail "short-key tx admitted"

(* A 19-byte address anywhere on the tx wire — the sender or a Call
   destination — is a [Decode_error], never an escaping
   [Invalid_argument]. *)
let test_short_wire_address_rejected () =
  let dst = Wallet.address (wallet 1) in
  let tx = Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call dst) ~value:1 ~payload:Bytes.empty in
  let wire = Bytes.to_string (Tx.to_bytes tx) in
  (* [wire] with the length-prefixed [addr] re-encoded at 19 bytes *)
  let shorten addr =
    let encode b = Bytes.to_string (Codec.encode Codec.bytes b) in
    let field = encode (Address.to_bytes addr) in
    let len = String.length field in
    let rec find i = if String.sub wire i len = field then i else find (i + 1) in
    let i = find 0 in
    String.concat ""
      [
        String.sub wire 0 i;
        encode (Bytes.sub (Address.to_bytes addr) 0 19);
        String.sub wire (i + len) (String.length wire - i - len);
      ]
  in
  List.iter
    (fun (what, addr) ->
      match Tx.of_bytes (Bytes.of_string (shorten addr)) with
      | _ -> Alcotest.failf "%s: a 19-byte address decoded" what
      | exception Codec.Decode_error _ -> ())
    [ ("sender", tx.Tx.sender); ("call destination", dst) ]

(* The nonce field with its top bit set reads 2^63 above the signed
   nonce, out of the u64 reader's range: a [Decode_error], never the
   original transaction with its hash and signature intact. *)
let test_wire_nonce_top_bit_rejected () =
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:5 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  let wire = Tx.to_bytes tx in
  (* the nonce follows the length-prefixed sender address and key *)
  let at = 4 + 20 + 4 + Bytes.length (Zebra_rsa.Rsa.public_key_to_bytes tx.Tx.sender_pk) in
  Alcotest.(check int) "nonce field located" 5 (Codec.decode Codec.read_u64 (Bytes.sub wire at 8));
  Bytes.set wire at (Char.chr (Char.code (Bytes.get wire at) lor 0x80));
  match Tx.of_bytes wire with
  | _ -> Alcotest.fail "a nonce >= 2^63 decoded"
  | exception Codec.Decode_error _ -> ()

(* The sender key's [n] or [e] field with a leading zero byte reads as
   the same number: a [Decode_error], never the original transaction
   with its hash and signature intact. *)
let test_wire_key_leading_zero_rejected () =
  let module Rsa = Zebra_rsa.Rsa in
  let module Nat = Zebra_numeric.Nat in
  let tx =
    Tx.make ~wallet:(wallet 0) ~nonce:5 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
      ~payload:Bytes.empty
  in
  let wire = Tx.to_bytes tx in
  (* the key is a length-prefixed (n, e) pair after the sender address *)
  let key_at = 4 + 20 in
  let rest_at = key_at + 4 + Bytes.length (Rsa.public_key_to_bytes tx.Tx.sender_pk) in
  let with_key n e =
    let key =
      Codec.encode
        (fun w () ->
          Codec.bytes w n;
          Codec.bytes w e)
        ()
    in
    Bytes.concat Bytes.empty
      [
        Bytes.sub wire 0 key_at;
        Codec.encode Codec.bytes key;
        Bytes.sub wire rest_at (Bytes.length wire - rest_at);
      ]
  in
  let n = Nat.to_bytes_be tx.Tx.sender_pk.Rsa.n and e = Nat.to_bytes_be tx.Tx.sender_pk.Rsa.e in
  Alcotest.(check bool) "key field located" true (Bytes.equal wire (with_key n e));
  let pad b = Bytes.cat (Bytes.make 1 '\000') b in
  List.iter
    (fun (what, forged) ->
      Alcotest.(check int) "one byte longer" (Bytes.length wire + 1) (Bytes.length forged);
      match Tx.of_bytes forged with
      | _ -> Alcotest.failf "a key %s with a leading zero byte decoded" what
      | exception Codec.Decode_error _ -> ())
    [ ("n", with_key (pad n) e); ("e", with_key n (pad e)) ]

let test_mine_ext_rejected_classification () =
  (* An invalidly-signed candidate smuggled in by the adversary shows up as
     [Rejected] in the typed outcomes, in candidate order, and never
     executes. *)
  let net = fresh_net () in
  let doctored =
    let tx =
      Tx.make ~wallet:(wallet 0) ~nonce:5 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
        ~payload:Bytes.empty
    in
    let b = Tx.to_bytes tx in
    Bytes.set b 60 (Char.chr (Char.code (Bytes.get b 60) lxor 1));
    try Some (Tx.of_bytes b) with _ -> None
  in
  Network.set_adversary net
    (Some (fun txs -> match doctored with Some d -> d :: txs | None -> txs));
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:5
       ~payload:Bytes.empty);
  match (doctored, Network.mine_ext net) with
  | None, _ -> () (* tampering happened to break decoding; nothing to classify *)
  | Some _, [ Network.Rejected _; honest ] -> applied_ok honest
  | Some _, rs -> Alcotest.failf "unexpected outcomes (%d)" (List.length rs)

(* For any mix of transfers and contract calls, under any fee schedule,
   every mined block's root equals the
   root of a replay from genesis, and the final root is byte-identical at
   1 and 4 domains.  Every block is checked, not only the last: a missed
   sub-root invalidation can be hidden by a later write to the same
   shard. *)
let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (map2
         (fun kind (a, b, c) ->
           if kind = 0 then `Transfer (a mod 3, b mod 4, 1 + (c mod 50), c mod 10)
           else `Release (a mod 3, b mod 6, c mod 10))
         (int_bound 1)
         (triple (int_bound 1000) (int_bound 1000) (int_bound 1000))))

let run_mixed_scenario ops =
  let net = fresh_net () in
  let roots_ok = ref true in
  let mine_checked () =
    let results = Network.mine_ext net in
    let replay = Network.replay net in
    let tip = List.hd (List.rev (Network.blocks net)) in
    roots_ok :=
      !roots_ok
      && Bytes.equal (Network.state_root net) replay
      && Bytes.equal tip.Block.header.Block.state_root replay;
    results
  in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0
       ~dst:(Tx.Create { behavior = "test-escrow"; args = Bytes.empty })
       ~value:500 ~payload:Bytes.empty);
  let escrow =
    match mine_checked () with
    | [ Network.Applied r ] -> created r
    | _ -> Alcotest.fail "escrow deployment not applied"
  in
  let nonces = Array.make 3 0 in
  nonces.(0) <- 1;
  List.iteri
    (fun i op ->
      let sender =
        match op with `Transfer (s, _, _, _) | `Release (s, _, _) -> s
      in
      (match op with
      | `Transfer (s, d, value, fee) ->
        Network.submit net
          (Tx.make_ext ~wallet:(wallet s) ~fee ~footprint:[] ~nonce:nonces.(s)
             ~dst:(Tx.Call (Wallet.address (wallet d)))
             ~value ~payload:Bytes.empty)
      | `Release (s, p, fee) ->
        let payee = Wallet.address (wallet p) in
        Network.submit net
          (Tx.make_ext ~wallet:(wallet s) ~fee ~footprint:[] ~nonce:nonces.(s)
             ~dst:(Tx.Call escrow) ~value:1 ~payload:(Address.to_bytes payee)));
      nonces.(sender) <- nonces.(sender) + 1;
      if i mod 3 = 2 then ignore (mine_checked ()))
    ops;
  ignore (mine_checked ());
  (!roots_ok, Network.state_root net, Network.replay net)

let prop_mined_root_is_replay_root =
  qtest "mined root == replay root per block, 1 and 4 domains" ~count:5 gen_ops
    (fun ops ->
      let ok1, root1, replay1 = with_domains 1 (fun () -> run_mixed_scenario ops) in
      let ok4, root4, replay4 = with_domains 4 (fun () -> run_mixed_scenario ops) in
      ok1 && ok4 && Bytes.equal root1 replay1 && Bytes.equal root4 replay4
      && Bytes.equal root1 root4)

(* A reverted call rolls its writes back through the journal: after a
   root was taken, an escrow call that moves its value and then reverts
   leaves the root of a state where only the caller's nonce advanced. *)
let test_undo_after_root () =
  let deployer = Wallet.address (wallet 0) and caller = Wallet.address (wallet 1) in
  let escrow = Address.of_creator deployer 0 in
  let deployed () =
    let st = State.create ~genesis:[ (deployer, 1_000); (caller, 1_000) ] in
    check_ok
      (State.apply_tx st ~height:1
         (Tx.make ~wallet:(wallet 0) ~nonce:0
            ~dst:(Tx.Create { behavior = "test-escrow"; args = Bytes.empty })
            ~value:600 ~payload:Bytes.empty));
    ignore (State.root st);
    st
  in
  let reverted = deployed () in
  (match
     (State.apply_tx reverted ~height:2
        (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call escrow) ~value:5
           ~payload:(Bytes.of_string "short")))
       .State.status
   with
  | State.Failed "bad payee" -> ()
  | _ -> Alcotest.fail "expected the escrow to revert with bad payee");
  let nonce_only = deployed () in
  check_ok
    (State.apply_tx nonce_only ~height:2
       (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call caller) ~value:0 ~payload:Bytes.empty));
  Alcotest.(check int) "the caller's nonce advanced" 1 (State.nonce reverted caller);
  Alcotest.(check int) "the escrow kept its balance" 600 (State.balance reverted escrow);
  Alcotest.(check bytes) "only the nonce advance stays" (State.root nonce_only)
    (State.root reverted)

(* Root cost follows the block, not the ledger: once a warm-up block has
   hashed every shard, a block carrying one transfer rehashes exactly the
   shards it wrote, once per replica, whether genesis funds 10 or 1 000
   accounts, and an empty block rehashes none. *)
let test_root_rehashes_written_shards () =
  let module Obs = Zebra_obs.Obs in
  let shards_hashed = Obs.Counter.make "chain.state.root.shards_hashed" in
  let sender = Wallet.address (wallet 0) and payee = Wallet.address (wallet 1) in
  let written =
    List.length
      (List.sort_uniq compare [ State.shard_of_address sender; State.shard_of_address payee ])
  in
  let hashed_by f =
    let before = Obs.Counter.value shards_hashed in
    f ();
    Obs.Counter.value shards_hashed - before
  in
  let blocks_with accounts =
    let filler =
      List.init (accounts - 1) (fun i ->
          let d = Zebra_hashing.Sha256.digest_string (Printf.sprintf "filler-%d" i) in
          (Address.of_bytes (Bytes.sub d 0 20), 1))
    in
    let net = Network.create ~num_nodes:3 ~genesis:((sender, 1_000_000) :: filler) () in
    ignore (Network.mine net);
    let empty = hashed_by (fun () -> ignore (Network.mine net)) in
    Network.submit net
      (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call payee) ~value:5 ~payload:Bytes.empty);
    let transfer = hashed_by (fun () -> ignore (Network.mine net)) in
    Alcotest.(check int) "transfer applied" 5 (Network.balance net payee);
    (empty, transfer)
  in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let empty10, transfer10 = blocks_with 10 in
      let empty1000, transfer1000 = blocks_with 1_000 in
      Alcotest.(check int) "empty block, 10 accounts" 0 empty10;
      Alcotest.(check int) "empty block, 1000 accounts" 0 empty1000;
      Alcotest.(check int) "one transfer, 10 accounts: written shards x 3 replicas"
        (3 * written) transfer10;
      Alcotest.(check int) "one transfer: same count at 1000 accounts" transfer10 transfer1000)

(* --- partitions, fork choice and reorgs --- *)

let all_replicas_agree net =
  let root = Network.state_root net in
  for node = 0 to Network.num_nodes net - 1 do
    Alcotest.(check bytes)
      (Printf.sprintf "node %d on the canonical root" node)
      root
      (Network.node_state_root net node)
  done

(* Every block carries the hash of its own header: the chain after a heal
   or a sibling reorg holds blocks built by [Block.make] only. *)
let block_hashes_agree net =
  List.iter
    (fun (b : Block.t) ->
      Alcotest.(check bytes)
        (Printf.sprintf "block %d hash is its header's" b.Block.header.Block.height)
        (Block.hash_header b.Block.header) (Block.hash b))
    (Network.blocks net)

let test_partition_heal () =
  let net = fresh_net ~num_nodes:3 () in
  let a1 = Wallet.address (wallet 1) in
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call a1) ~value:5 ~payload:Bytes.empty);
  ignore (Network.mine net);
  Network.start_partition net ~minority:[ 2 ];
  Alcotest.(check bool) "partition active" true (Network.partition_active net);
  (* the majority mines the pending transfer; the minority mines an empty
     sibling branch of equal length *)
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:1 ~dst:(Tx.Call a1) ~value:7 ~payload:Bytes.empty);
  ignore (Network.mine net);
  ignore (Network.mine net);
  let h = Network.height net in
  let r = Network.heal_partition net in
  Alcotest.(check bool) "partition over" false (Network.partition_active net);
  Alcotest.(check int) "equal-length branches: height is stable" h (Network.height net);
  if r.Network.adopted_fork then begin
    Alcotest.(check int) "the whole majority branch reorged" 2 r.Network.reorged_blocks;
    Alcotest.(check bool) "orphaned transfer requeued" true (r.Network.requeued_txs >= 1)
  end
  else Alcotest.(check int) "canonical chain kept: nothing requeued" 0 r.Network.requeued_txs;
  (* either way: one more block lands any requeued orphans and every
     replica — including the healed minority — is back on one root *)
  ignore (Network.mine net);
  Alcotest.(check int) "both transfers settled exactly once" 1_000_012 (Network.balance net a1);
  all_replicas_agree net

let test_partition_rejects_bad_splits () =
  let net = fresh_net ~num_nodes:3 () in
  List.iter
    (fun minority ->
      match Network.start_partition net ~minority with
      | () -> Alcotest.failf "accepted bad minority"
      | exception Invalid_argument _ -> ())
    [ []; [ 0 ]; [ 7 ]; [ 0; 1; 2 ] ];
  Network.start_partition net ~minority:[ 2 ];
  (match Network.start_partition net ~minority:[ 1 ] with
  | () -> Alcotest.fail "accepted a second partition"
  | exception Invalid_argument _ -> ());
  ignore (Network.heal_partition net)

(* Some replica outside the minority stays up whatever order crashes and
   partitions come in: it mines and answers reads. *)
let test_live_majority_kept () =
  let net = fresh_net ~num_nodes:3 () in
  Network.start_partition net ~minority:[ 2 ];
  Network.crash_node net ~node:0;
  (match Network.crash_node net ~node:1 with
  | () -> Alcotest.fail "crashed the last live replica outside the minority"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "node 1 still up" true (Network.node_up net 1);
  ignore (Network.mine net);
  ignore (Network.heal_partition net);
  Network.restart_node net ~node:0;
  all_replicas_agree net;
  let net = fresh_net ~num_nodes:3 () in
  Network.crash_node net ~node:0;
  (match Network.start_partition net ~minority:[ 1; 2 ] with
  | () -> Alcotest.fail "partitioned off every live replica"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "no partition started" false (Network.partition_active net);
  ignore (Network.mine net);
  Alcotest.(check int) "the chain still grows" 1 (Network.height net)

let test_fork_tip_choice () =
  let net = fresh_net ~num_nodes:3 () in
  Alcotest.(check (option bool)) "no tip to fork at genesis" None
    (Network.fork_tip net ~permute:List.rev);
  Network.submit net
    (Tx.make ~wallet:(wallet 0) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:3
       ~payload:Bytes.empty);
  Network.submit net
    (Tx.make ~wallet:(wallet 1) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 2))) ~value:4
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  let tip_before =
    match List.rev (Network.blocks net) with b :: _ -> b | [] -> assert false
  in
  Alcotest.(check (option bool)) "identity permutation is not a fork" None
    (Network.fork_tip net ~permute:(fun txs -> txs));
  (match Network.fork_tip net ~permute:List.rev with
  | None -> Alcotest.fail "a two-tx tip must yield a distinct sibling"
  | Some adopted ->
    let tip_after =
      match List.rev (Network.blocks net) with b :: _ -> b | [] -> assert false
    in
    let same_tip = Bytes.equal (Block.hash tip_before) (Block.hash tip_after) in
    Alcotest.(check bool) "tip replaced iff the sibling won fork choice" adopted (not same_tip);
    if adopted then
      (* fork choice at equal height: the smaller hash wins *)
      Alcotest.(check bool) "adopted sibling hashes below the old tip" true
        (Bytes.compare (Block.hash tip_after) (Block.hash tip_before) < 0);
    Alcotest.(check int) "height unchanged" 1 (Network.height net);
    block_hashes_agree net);
  (* the chain keeps working after the (possible) depth-1 reorg *)
  Network.submit net
    (Tx.make ~wallet:(wallet 2) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet 0))) ~value:1
       ~payload:Bytes.empty);
  ignore (Network.mine net);
  all_replicas_agree net;
  Alcotest.(check int) "transfers settled exactly once (received 3, sent 4)" 999_999
    (Network.balance net (Wallet.address (wallet 1)))

(* A replica that is down across a sibling reorg catches up at restart
   through the same re-sync rule as a heal.  Wallet 3 starts unfunded, so
   its transfer fails when it runs ahead of its funding: a sibling that
   swaps them commits to a different root.  Node 1 executed the tip before
   it crashed and must replay from genesis; node 2 crashed before the tip
   was mined and applies only the adopted sibling. *)
let test_restart_across_sibling_reorg () =
  let net = fresh_net ~num_nodes:3 () in
  let send from to_ value =
    Network.submit net
      (Tx.make ~wallet:(wallet from) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet to_)))
         ~value ~payload:Bytes.empty)
  in
  Network.crash_node net ~node:2;
  send 0 3 10;
  send 3 1 5;
  send 1 2 1;
  ignore (Network.mine net);
  let orphaned = last_block net in
  Network.crash_node net ~node:1;
  (* fork choice breaks the tie on the tip hash, so walk the permutations
     that run the unfunded transfer first until one sibling wins *)
  let permutations =
    [
      (function [ a; b; c ] -> [ b; a; c ] | txs -> txs);
      (function [ a; b; c ] -> [ b; c; a ] | txs -> txs);
      List.rev;
      (function [ a; b; c ] -> [ a; c; b ] | txs -> txs);
      (function [ a; b; c ] -> [ c; a; b ] | txs -> txs);
    ]
  in
  Alcotest.(check bool) "a sibling is adopted" true
    (List.exists (fun permute -> Network.fork_tip net ~permute = Some true) permutations);
  let adopted = last_block net in
  Alcotest.(check bool) "the adopted sibling commits to another root" false
    (Bytes.equal adopted.Block.header.Block.state_root orphaned.Block.header.Block.state_root);
  Alcotest.(check bytes) "node 1 still holds the orphaned tip's state while down"
    orphaned.Block.header.Block.state_root (Network.node_state_root net 1);
  Network.restart_node net ~node:2;
  Alcotest.(check bytes) "restarted node 2 lands on the adopted tip's root"
    adopted.Block.header.Block.state_root (Network.node_state_root net 2);
  Network.restart_node net ~node:1;
  all_replicas_agree net;
  block_hashes_agree net;
  Alcotest.(check bytes) "every replica on the adopted tip's root"
    adopted.Block.header.Block.state_root (Network.state_root net)

(* A heal that adopts the minority branch: the branch is built at heal
   time, one empty block per minority tick, linked off the fork point and
   carrying its state root.  Fork choice breaks the tie on the tip hash,
   so each fork height walks the number of ticks until the minority wins;
   fork height 0 links the branch to genesis. *)
let test_adopted_heal_branch () =
  let attempt ~fork_height ticks =
    let net = fresh_net ~num_nodes:3 () in
    for nonce = 0 to fork_height - 1 do
      Network.submit net
        (Tx.make ~wallet:(wallet 0) ~nonce ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:5
           ~payload:Bytes.empty);
      ignore (Network.mine net)
    done;
    let fork_root = Network.state_root net in
    Network.start_partition net ~minority:[ 2 ];
    Network.submit net
      (Tx.make ~wallet:(wallet 0) ~nonce:fork_height ~dst:(Tx.Call (Wallet.address (wallet 1)))
         ~value:7 ~payload:Bytes.empty);
    for _ = 1 to ticks do
      ignore (Network.mine net)
    done;
    let r = Network.heal_partition net in
    if r.Network.adopted_fork then Some (net, fork_root, r) else None
  in
  List.iter
    (fun fork_height ->
      match List.find_map (attempt ~fork_height) [ 1; 2; 3; 4; 5; 6; 7; 8 ] with
      | None -> Alcotest.failf "fork height %d: no tick count adopts the minority" fork_height
      | Some (net, fork_root, r) ->
        let ticks = Network.height net - fork_height in
        Alcotest.(check int) "every majority block reorged" ticks r.Network.reorged_blocks;
        Alcotest.(check int) "the orphaned transfer requeued" 1 r.Network.requeued_txs;
        Alcotest.(check (result unit string)) "a light client accepts the adopted chain" (Ok ())
          (Light_client.sync (Light_client.create ()) (Network.blocks net));
        List.iter
          (fun (b : Block.t) ->
            if b.Block.header.Block.height > fork_height then begin
              Alcotest.(check int) "branch block is empty" 0 (List.length b.Block.txs);
              Alcotest.(check bytes) "branch block carries the fork point's root" fork_root
                b.Block.header.Block.state_root
            end)
          (Network.blocks net);
        block_hashes_agree net;
        Alcotest.(check bytes) "replay equals the live root" (Network.state_root net)
          (Network.replay net);
        all_replicas_agree net;
        ignore (Network.mine net);
        Alcotest.(check int) "the requeued transfer lands once"
          (1_000_007 + (5 * fork_height))
          (Network.balance net (Wallet.address (wallet 1))))
    [ 0; 1 ]

(* Signatures are [Network]'s to check, and [State] only executes: a
   mined transaction costs one check when it is broadcast and one when its
   block is sealed, and replicas, replays and re-syncs execute sealed
   blocks unchecked. *)
let test_signature_checks_per_tx () =
  let module Obs = Zebra_obs.Obs in
  let checks = Obs.Counter.make "chain.tx.signature_checks" in
  let checked_by f =
    let before = Obs.Counter.value checks in
    f ();
    Obs.Counter.value checks - before
  in
  let net = fresh_net ~num_nodes:3 () in
  let transfers nonces =
    List.map
      (fun nonce ->
        Tx.make ~wallet:(wallet 0) ~nonce ~dst:(Tx.Call (Wallet.address (wallet 1))) ~value:1
          ~payload:Bytes.empty)
      nonces
  in
  let mine () = List.iter check_ok (Network.mine net) in
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled false)
    (fun () ->
      let k = 3 and j = 2 in
      Alcotest.(check int) "submitting k transfers: k checks" k
        (checked_by (fun () -> List.iter (Network.submit net) (transfers [ 0; 1; 2 ])));
      Alcotest.(check int) "mining them: k checks, none on the 3 replicas" k (checked_by mine);
      Alcotest.(check int) "a replay: none" 0 (checked_by (fun () -> ignore (Network.replay net)));
      Network.crash_node net ~node:2;
      Alcotest.(check int) "j more while node 2 is down: 2j checks" (2 * j)
        (checked_by (fun () ->
             List.iter (Network.submit net) (transfers [ 3; 4 ]);
             mine ()));
      Alcotest.(check int) "node 2's re-sync: none" 0
        (checked_by (fun () -> Network.restart_node net ~node:2));
      all_replicas_agree net)

(* The other sealer checks too: a byzantine sibling whose [permute] adds a
   forged transaction drops it, so an adopted sibling carries only checked
   transactions.  Fork choice breaks the tie on the tip hash, so walk the
   transfers' value until a sibling wins. *)
let test_sibling_cannot_carry_forgery () =
  let attempt value =
    let net = fresh_net ~num_nodes:3 () in
    List.iter
      (fun (from, to_) ->
        Network.submit net
          (Tx.make ~wallet:(wallet from) ~nonce:0 ~dst:(Tx.Call (Wallet.address (wallet to_)))
             ~value ~payload:Bytes.empty))
      [ (0, 1); (1, 2); (2, 0) ];
    ignore (Network.mine net);
    (* a doctored copy of the first transfer: one signature byte flipped *)
    let forged =
      let b = Tx.to_bytes (List.hd (last_block net).Block.txs) in
      let i = Bytes.length b - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      Tx.of_bytes b
    in
    Alcotest.(check bool) "the copy fails validation" false (Tx.validate forged);
    match Network.fork_tip net ~permute:(fun txs -> forged :: List.rev txs) with
    | Some true -> Some (net, forged)
    | _ -> None
  in
  match List.find_map attempt [ 1; 2; 3; 4; 5; 6; 7; 8 ] with
  | None -> Alcotest.fail "no value's sibling wins fork choice"
  | Some (net, forged) ->
    block_hashes_agree net;
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun tx ->
            if Bytes.equal (Tx.hash tx) (Tx.hash forged) then
              Alcotest.failf "the forged transaction is sealed at height %d"
                b.Block.header.Block.height)
          b.Block.txs)
      (Network.blocks net);
    (match Network.receipt net (Tx.hash forged) with
    | None -> ()
    | Some _ -> Alcotest.fail "the forged transaction has a receipt");
    all_replicas_agree net;
    Alcotest.(check bytes) "replay equals the live root" (Network.state_root net)
      (Network.replay net)

let () =
  Alcotest.run "chain"
    [
      ( "tx",
        [
          Alcotest.test_case "address derivation" `Quick test_address_derivation;
          Alcotest.test_case "tx roundtrip" `Quick test_tx_roundtrip;
          Alcotest.test_case "tx size is the wire length" `Quick test_tx_size_is_wire_length;
          Alcotest.test_case "make_ext rejects a footprint" `Quick test_make_ext_rejects_footprint;
          Alcotest.test_case "tx tamper" `Quick test_tx_tamper;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "plain transfer" `Quick test_plain_transfer;
          Alcotest.test_case "insufficient funds" `Quick test_insufficient_funds;
          Alcotest.test_case "nonce / replay" `Quick test_nonce_enforcement;
          Alcotest.test_case "supply conservation" `Quick test_supply_conservation;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "lifecycle" `Quick test_contract_lifecycle;
          Alcotest.test_case "unknown behavior" `Quick test_unknown_behavior;
          Alcotest.test_case "revert rollback" `Quick test_revert_rolls_back;
          Alcotest.test_case "exception keeps the nonce advance" `Quick
            test_exception_keeps_nonce;
          Alcotest.test_case "escrow actions" `Quick test_escrow_transfer_action;
        ] );
      ( "network",
        [
          Alcotest.test_case "replicas agree" `Quick test_replicas_agree;
          Alcotest.test_case "block hook that mines rejected" `Quick test_mining_hook_rejected;
          Alcotest.test_case "adversary reorder" `Quick test_adversary_reorder;
          Alcotest.test_case "adversary cannot forge" `Quick test_adversary_cannot_forge;
          Alcotest.test_case "adversary duplicate rejected" `Quick
            test_adversary_duplicate_rejected;
          Alcotest.test_case "adversary drop requeues" `Quick test_adversary_drop_requeues;
          Alcotest.test_case "block linkage" `Quick test_block_chain_integrity;
          Alcotest.test_case "tx inclusion proof" `Quick test_tx_inclusion_proof;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
          Alcotest.test_case "mine_until" `Quick test_mine_until;
        ] );
      ( "sharded exec",
        [
          Alcotest.test_case "fee ordering" `Quick test_fee_ordering;
          Alcotest.test_case "fee ordering keeps nonce lanes" `Quick
            test_fee_ordering_keeps_nonce_lanes;
          Alcotest.test_case "submit_r typed rejection" `Quick test_submit_r_typed_rejection;
          Alcotest.test_case "short sender key rejected" `Quick test_short_sender_key_rejected;
          Alcotest.test_case "short wire address rejected" `Quick test_short_wire_address_rejected;
          Alcotest.test_case "wire nonce top bit rejected" `Quick test_wire_nonce_top_bit_rejected;
          Alcotest.test_case "wire key leading zero rejected" `Quick
            test_wire_key_leading_zero_rejected;
          Alcotest.test_case "mine_ext rejected classification" `Quick
            test_mine_ext_rejected_classification;
          prop_mined_root_is_replay_root;
          Alcotest.test_case "root rehashes only written shards" `Quick
            test_root_rehashes_written_shards;
          Alcotest.test_case "undo after root restores root" `Quick test_undo_after_root;
          Alcotest.test_case "two signature checks per mined tx" `Quick
            test_signature_checks_per_tx;
        ] );
      ( "forks",
        [
          Alcotest.test_case "partition heal fork choice" `Quick test_partition_heal;
          Alcotest.test_case "partition rejects bad splits" `Quick
            test_partition_rejects_bad_splits;
          Alcotest.test_case "a live replica outside the minority stays" `Quick
            test_live_majority_kept;
          Alcotest.test_case "byzantine sibling fork choice" `Quick test_fork_tip_choice;
          Alcotest.test_case "restart across a sibling reorg" `Quick
            test_restart_across_sibling_reorg;
          Alcotest.test_case "adopted heal builds the empty branch" `Quick
            test_adopted_heal_branch;
          Alcotest.test_case "byzantine sibling cannot carry a forgery" `Quick
            test_sibling_cannot_carry_forgery;
        ] );
    ]
