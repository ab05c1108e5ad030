module Json = Zebra_obs.Json

type kind = Deterministic | Timing

type value = Num of float | Str of string

type t = { name : string; unit : string; value : value; kind : kind }

let det name ~unit v = { name; unit; value = Num v; kind = Deterministic }
let text name ~unit s = { name; unit; value = Str s; kind = Deterministic }
let timing name ~unit v = { name; unit; value = Num v; kind = Timing }

let json_of_value = function Num f -> Json.Num f | Str s -> Json.Str s
let show v = Json.to_string (json_of_value v)

let to_json r =
  Json.Obj
    [
      ("name", Json.Str r.name);
      ("unit", Json.Str r.unit);
      ("value", json_of_value r.value);
      ("kind", Json.Str (match r.kind with Deterministic -> "deterministic" | Timing -> "timing"));
    ]

let to_string rows =
  let rec check_unique = function
    | [] -> ()
    | r :: tl ->
      if List.exists (fun r' -> r'.name = r.name) tl then
        invalid_arg ("Row.to_string: duplicate row " ^ r.name);
      check_unique tl
  in
  check_unique rows;
  "[\n" ^ String.concat ",\n" (List.map (fun r -> Json.to_string (to_json r)) rows) ^ "\n]\n"

let of_json j =
  let field key =
    match Json.member key j with Some v -> v | None -> failwith ("row without " ^ key)
  in
  let str key = match field key with Json.Str s -> s | _ -> failwith (key ^ " is not a string") in
  {
    name = str "name";
    unit = str "unit";
    value =
      (match field "value" with
      | Json.Num f -> Num f
      | Json.Str s -> Str s
      | Json.Null -> Num Float.nan
      | _ -> failwith "value is neither a number nor a string");
    kind =
      (match str "kind" with
      | "deterministic" -> Deterministic
      | "timing" -> Timing
      | k -> failwith ("unknown row kind " ^ k));
  }

let of_string s =
  match Json.of_string s with
  | Json.List rows -> List.map of_json rows
  | _ -> failwith "not a row list"
  | exception Json.Parse_error why -> failwith why

let write path rows =
  let oc = open_out path in
  output_string oc (to_string rows);
  close_out oc

let read path = of_string (In_channel.with_open_bin path In_channel.input_all)

let value_equal a b =
  match (a, b) with
  | Num x, Num y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | _ -> false

let diff ~committed ~fresh =
  let pinned = List.filter (fun r -> r.kind = Deterministic) in
  let committed = pinned committed and fresh = pinned fresh in
  let find r rows = List.find_opt (fun r' -> r'.name = r.name) rows in
  List.filter_map
    (fun c ->
      match find c fresh with
      | None -> Some (Printf.sprintf "missing %s (committed %s)" c.name (show c.value))
      | Some f when value_equal f.value c.value && f.unit = c.unit -> None
      | Some f ->
        Some
          (Printf.sprintf "%s differs: committed %s %s, now %s %s" c.name (show c.value) c.unit
             (show f.value) f.unit))
    committed
  @ List.filter_map
      (fun f ->
        match find f committed with
        | None -> Some (Printf.sprintf "extra %s = %s %s" f.name (show f.value) f.unit)
        | Some _ -> None)
      fresh
