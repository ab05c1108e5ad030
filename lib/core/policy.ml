module Codec = Zebra_codec.Codec

type t =
  | Majority of { choices : int }
  | Majority_threshold of { choices : int; quota : int }
  | Reverse_auction of { winners : int; max_bid : int }

type answer = int option

let answer_space = function
  | Majority { choices } | Majority_threshold { choices; _ } -> choices
  | Reverse_auction { max_bid; _ } -> max_bid + 1

let valid_answer p a = a >= 0 && a < answer_space p

(* Vote counts and the tie-to-smallest majority choice. *)
let tally ~choices answers =
  let counts = Array.make choices 0 in
  Array.iter
    (function
      | Some a when a >= 0 && a < choices -> counts.(a) <- counts.(a) + 1
      | Some _ | None -> ())
    answers;
  let best = ref 0 in
  Array.iteri (fun c k -> if k > counts.(!best) then best := c) counts;
  (counts, !best)

let majority_rewards ~choices ~quota ~budget ~n answers =
  let counts, majority = tally ~choices answers in
  let rho = budget / n in
  let gate = counts.(majority) >= quota in
  Array.map
    (function
      | Some a when gate && a = majority -> rho
      | Some _ | None -> 0)
    answers

let auction_rewards ~winners ~max_bid ~budget answers =
  let indexed =
    Array.to_list answers
    |> List.mapi (fun i a -> (i, a))
    |> List.filter_map (fun (i, a) ->
           match a with Some b when b >= 0 && b <= max_bid -> Some (i, b) | _ -> None)
  in
  (* Stable sort by bid: ties keep submission order. *)
  let sorted = List.stable_sort (fun (_, b1) (_, b2) -> compare b1 b2) indexed in
  let rec split k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (k - 1) (x :: acc) rest
  in
  let winning, losing = split winners [] sorted in
  let clearing_price =
    match losing with
    | (_, b) :: _ -> b
    | [] -> max_bid (* no losing bid: pay the reserve *)
  in
  let cap = if winners > 0 then budget / winners else 0 in
  let pay = min clearing_price cap in
  let out = Array.make (Array.length answers) 0 in
  List.iter (fun (i, _) -> out.(i) <- pay) winning;
  out

let rewards p ~budget ~n answers =
  if Array.length answers <> n then invalid_arg "Policy.rewards: wrong answer count";
  if budget < 0 || n <= 0 then invalid_arg "Policy.rewards: bad parameters";
  match p with
  | Majority { choices } -> majority_rewards ~choices ~quota:0 ~budget ~n answers
  | Majority_threshold { choices; quota } -> majority_rewards ~choices ~quota ~budget ~n answers
  | Reverse_auction { winners; max_bid } -> auction_rewards ~winners ~max_bid ~budget answers

let fallback_share ~budget ~submitted = if submitted <= 0 then 0 else budget / submitted

let equal a b = a = b

let to_bytes p =
  Codec.encode
    (fun w p ->
      match p with
      | Majority { choices } ->
        Codec.u8 w 0;
        Codec.u32 w choices
      | Majority_threshold { choices; quota } ->
        Codec.u8 w 1;
        Codec.u32 w choices;
        Codec.u32 w quota
      | Reverse_auction { winners; max_bid } ->
        Codec.u8 w 2;
        Codec.u32 w winners;
        Codec.u32 w max_bid)
    p

let of_bytes b =
  Codec.decode
    (fun r ->
      match Codec.read_u8 r with
      | 0 -> Majority { choices = Codec.read_u32 r }
      | 1 ->
        let choices = Codec.read_u32 r in
        let quota = Codec.read_u32 r in
        Majority_threshold { choices; quota }
      | 2 ->
        let winners = Codec.read_u32 r in
        let max_bid = Codec.read_u32 r in
        Reverse_auction { winners; max_bid }
      | _ -> raise (Codec.Decode_error "policy: bad tag"))
    b
