module Snark = Zebra_snark.Snark
module Elgamal = Zebra_elgamal.Elgamal
open Zebra_r1cs

type t = {
  policy : Policy.t;
  n : int;
  keys : Snark.keypair;
  n_constraints : int;
}

(* How the contract derives the public "unit reward" input from the budget:
   tau/n for majority policies, the per-winner cap tau/k for auctions. *)
let rho_of ~policy ~budget ~n =
  match policy with
  | Policy.Majority _ | Policy.Majority_threshold _ -> budget / n
  | Policy.Reverse_auction { winners; _ } -> if winners > 0 then budget / winners else 0

(* Bits needed to compare values bounded by [bound]. *)
let bits_for bound =
  let rec go b acc = if acc >= bound then b else go (b + 1) (2 * acc) in
  go 1 2

let money_bits = 61

(* --- circuit synthesis --- *)

(* Shared front end: allocate public inputs, decrypt every slot.
   Returns (cs, rho_var, per-slot plaintext vars, reward vars). *)
let synthesize_common ~n ~epk ~rho ~cts ~rewards ~esk_bits ~plaintexts =
  let cs = Cs.create () in
  let open Gadgets in
  let v_epk = Cs.alloc_input cs epk in
  let v_rho = Cs.alloc_input cs (Fp.of_int rho) in
  let v_cts =
    Array.map
      (fun (ct : Elgamal.ciphertext) ->
        let c1 = Cs.alloc_input cs ct.Elgamal.c1 in
        let c2 = Cs.alloc_input cs ct.Elgamal.c2 in
        (c1, c2))
      cts
  in
  let v_rewards = Array.map (fun r -> Cs.alloc_input cs (Fp.of_int r)) rewards in
  (* Witness: esk bits; pair(esk, epk) = 1. *)
  let bits = Array.map (alloc_bit cs) esk_bits in
  let g_esk = exp cs ~base:(c Elgamal.g) ~bits in
  enforce_eq cs ~label:"pair(esk,epk)" (v g_esk) (v v_epk);
  (* Per slot: m_j * c1^esk = c2, and missing slots pin m_j = 0. *)
  let v_m =
    Array.mapi
      (fun j (c1, c2) ->
        let m = Cs.alloc cs ~label:(Printf.sprintf "answer[%d]" j) plaintexts.(j) in
        let pow = exp cs ~base:(v c1) ~bits in
        Cs.enforce cs ~label:(Printf.sprintf "decrypt[%d]" j) (v m) (v pow) (v c2);
        let miss = is_zero cs (v c1) in
        Cs.enforce cs ~label:(Printf.sprintf "missing[%d]" j) (v miss) (v m) [];
        m)
      v_cts
  in
  ignore n;
  (cs, v_rho, v_m, v_rewards)

(* Majority / majority-with-quota tail. *)
let synthesize_majority ~choices ~quota (cs, v_rho, v_m, v_rewards) =
  let open Gadgets in
  let n = Array.length v_m in
  let count_bits = bits_for (n + 1) in
  (* eq_jc: answer j encodes choice c (encoding c+1). *)
  let eq_tbl =
    Array.map (fun m -> Array.init choices (fun ch -> eq cs (v m) (ci (ch + 1)))) v_m
  in
  let count ch =
    Array.fold_left (fun acc row -> acc +: v row.(ch)) [] eq_tbl
  in
  (* Arg-max with ties to the smallest choice. *)
  let best_count = ref (count 0) in
  let best_choice = ref (c Fp.zero) in
  for ch = 1 to choices - 1 do
    let cnt = count ch in
    let gt = less_than cs !best_count cnt ~bits:count_bits in
    best_count := v (select cs ~cond:gt cnt !best_count);
    best_choice := v (select cs ~cond:gt (ci ch) !best_choice)
  done;
  let maj_enc = !best_choice +: c Fp.one in
  let gate =
    if quota <= 0 then None
    else begin
      let lt = less_than cs !best_count (ci quota) ~bits:count_bits in
      Some (c Fp.one -: lt)
    end
  in
  Array.iteri
    (fun j m ->
      let correct = eq cs (v m) maj_enc in
      match gate with
      | None ->
        Cs.enforce cs ~label:(Printf.sprintf "reward[%d]" j) (v v_rho) (v correct)
          (v v_rewards.(j))
      | Some gate ->
        let base = mul cs (v v_rho) (v correct) in
        Cs.enforce cs ~label:(Printf.sprintf "reward[%d]" j) (v base) gate (v v_rewards.(j)))
    v_m;
  cs

(* Reverse auction tail: rank every slot by (bid, submission index), pay the
   [k] best a (k+1)-price clamped by [rho] (the per-winner cap). *)
let synthesize_auction ~winners ~max_bid (cs, v_rho, v_m, v_rewards) =
  let open Gadgets in
  let n = Array.length v_m in
  let s_bound = max_bid + 2 in
  let s_bits = bits_for s_bound in
  let rank_bits = bits_for (n + 1) in
  (* Valid bids: m encodes bid+1 in [1, max_bid+1].  eq against each value
     is sound on unbounded field elements (unlike a range decomposition). *)
  let sort_keys =
    Array.map
      (fun m ->
        let eqs = Array.init (max_bid + 1) (fun b -> eq cs (v m) (ci (b + 1))) in
        let valid = Array.fold_left (fun acc e -> acc +: v e) [] eqs in
        let bid =
          Array.to_list eqs
          |> List.mapi (fun b e -> scale (Fp.of_int b) (v e))
          |> List.concat
        in
        (* s = bid when valid, max_bid+1 when invalid *)
        let s = bid +: scale (Fp.of_int (max_bid + 1)) (c Fp.one -: valid) in
        (s, valid))
      v_m
  in
  (* beats.(i).(j) for i < j: slot i sorts before slot j. *)
  let beats = Array.make_matrix n n (c Fp.zero) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let si, _ = sort_keys.(i) and sj, _ = sort_keys.(j) in
      let lt_ij = less_than cs si sj ~bits:s_bits in
      let eq_ij = eq cs si sj in
      beats.(i).(j) <- lt_ij +: v eq_ij;
      (* earlier index wins ties *)
      beats.(j).(i) <- c Fp.one -: beats.(i).(j)
    done
  done;
  let ranks =
    Array.init n (fun j ->
        let acc = ref [] in
        for i = 0 to n - 1 do
          if i <> j then acc := !acc +: beats.(i).(j)
        done;
        !acc)
  in
  (* Clearing price: the sort key at rank [winners]; max_bid if absent or
     above max_bid (no valid loser). *)
  let at_rank_k =
    Array.init n (fun j -> eq cs ranks.(j) (ci winners))
  in
  let has_loser = Array.fold_left (fun acc e -> acc +: v e) [] at_rank_k in
  let price_raw =
    let acc = ref (scale (Fp.of_int max_bid) (c Fp.one -: has_loser)) in
    Array.iteri
      (fun j e ->
        let s, _ = sort_keys.(j) in
        acc := !acc +: v (mul cs (v e) s))
      at_rank_k;
    !acc
  in
  let over = less_than cs (ci max_bid) price_raw ~bits:s_bits in
  let price = v (select cs ~cond:over (ci max_bid) price_raw) in
  (* pay = min(price, rho) *)
  let cap_hit = less_than cs (v v_rho) price ~bits:money_bits in
  let pay = select cs ~cond:cap_hit (v v_rho) price in
  Array.iteri
    (fun j rank ->
      let _, valid = sort_keys.(j) in
      let in_top = less_than cs rank (ci winners) ~bits:rank_bits in
      let winner = mul cs in_top valid in
      let w_pay = mul cs (v winner) (v pay) in
      enforce_eq cs ~label:(Printf.sprintf "reward[%d]" j) (v w_pay) (v v_rewards.(j)))
    ranks;
  cs

let synthesize ~policy ~n ~epk ~rho ~cts ~rewards ~esk_bits ~plaintexts =
  let front = synthesize_common ~n ~epk ~rho ~cts ~rewards ~esk_bits ~plaintexts in
  match policy with
  | Policy.Majority { choices } -> synthesize_majority ~choices ~quota:0 front
  | Policy.Majority_threshold { choices; quota } -> synthesize_majority ~choices ~quota front
  | Policy.Reverse_auction { winners; max_bid } -> synthesize_auction ~winners ~max_bid front

let dummy_ct = Elgamal.missing

(* The structure the trusted setup compiles (dummy inputs) — also what the
   static analyzer inspects. *)
let constraint_system ~policy ~n =
  if n <= 0 then invalid_arg "Reward_circuit.constraint_system: need n > 0";
  synthesize ~policy ~n ~epk:Fp.one ~rho:0 ~cts:(Array.make n dummy_ct)
    ~rewards:(Array.make n 0)
    ~esk_bits:(Array.make Elgamal.exponent_bits false)
    ~plaintexts:(Array.make n Fp.zero)

let setup ~random_bytes ~policy ~n () =
  let cs = constraint_system ~policy ~n in
  {
    policy;
    n;
    keys = Snark.setup_rng ~rng:(Zebra_rng.Source.of_fn random_bytes) cs;
    n_constraints = Cs.num_constraints cs;
  }

(* (policy, n) determines the synthesised structure, so a digest of the
   policy encoding plus n is a sound cache identifier — the named path lets
   a hit skip synthesis as well as setup.  The policy tails are hash-free,
   so no hash composition enters the id. *)
let circuit_id ~policy ~n =
  Printf.sprintf "reward/%s/n=%d"
    (Zebra_hashing.Sha256.to_hex (Zebra_hashing.Sha256.digest (Policy.to_bytes policy)))
    n

let setup_cached cache ~seed ~policy ~n =
  if n <= 0 then invalid_arg "Reward_circuit.setup_cached: need n > 0";
  let keys, shape =
    Snark.Keycache.setup_named cache ~circuit_id:(circuit_id ~policy ~n) ~seed (fun () ->
        constraint_system ~policy ~n)
  in
  { policy; n; keys; n_constraints = shape.Snark.Keycache.constraints }

let policy t = t.policy
let n t = t.n
let num_constraints t = t.n_constraints
let vk_bytes t = Snark.vk_to_bytes t.keys.Snark.vk
let trapdoor_canary t = Snark.trapdoor_canary t.keys

let public_inputs ~epk ~rho ~cts ~rewards =
  let parts =
    [ epk; Fp.of_int rho ]
    @ List.concat_map
        (fun (ct : Elgamal.ciphertext) -> [ ct.Elgamal.c1; ct.Elgamal.c2 ])
        (Array.to_list cts)
    @ List.map Fp.of_int (Array.to_list rewards)
  in
  Array.of_list parts

let prove ~random_bytes t ~esk ~rho ~cts ~rewards =
  if Array.length cts <> t.n || Array.length rewards <> t.n then
    invalid_arg "Reward_circuit.prove: wrong arity";
  let bits = Elgamal.secret_bits esk in
  let epk =
    let acc = ref Fp.one in
    for i = Array.length bits - 1 downto 0 do
      acc := Fp.sqr !acc;
      if bits.(i) then acc := Fp.mul !acc Elgamal.g
    done;
    !acc
  in
  let plaintexts =
    Array.map
      (fun ct -> if Elgamal.is_missing ct then Fp.zero else Elgamal.decrypt esk ct)
      cts
  in
  let cs =
    synthesize ~policy:t.policy ~n:t.n ~epk ~rho ~cts ~rewards ~esk_bits:bits ~plaintexts
  in
  Snark.prove_rng ~rng:(Zebra_rng.Source.of_fn random_bytes) t.keys.Snark.pk cs

let verify ~vk_bytes ~epk ~rho ~cts ~rewards proof =
  match Snark.vk_of_bytes_cached vk_bytes with
  | vk -> Snark.verify vk ~public_inputs:(public_inputs ~epk ~rho ~cts ~rewards) proof
  | exception Zebra_codec.Codec.Decode_error _ -> false
