(* The comparator behind `bench check`: which row differences fail. *)
open Zebra_bench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let expect_pass name ~committed ~fresh =
  match Row.diff ~committed ~fresh with
  | [] -> ()
  | errs -> fail "%s: expected a match, got\n  %s" name (String.concat "\n  " errs)

let expect_fail name ~committed ~fresh =
  match Row.diff ~committed ~fresh with
  | [ _ ] -> ()
  | errs -> fail "%s: expected one mismatch, got %d" name (List.length errs)

let () =
  let digest = Row.text "snark.proof_sha256" ~unit:"sha256" "0571fea4" in
  let bytes = Row.det "field.mul.into_bytes_per_op" ~unit:"B/op" 0.00048 in
  let secs = Row.timing "snark.prove_s" ~unit:"s" 0.25 in
  let rows = [ digest; bytes; secs ] in
  expect_pass "equal rows" ~committed:rows ~fresh:rows;
  expect_pass "timing differs" ~committed:rows
    ~fresh:[ digest; bytes; { secs with Row.value = Row.Num 0.5 } ];
  expect_pass "timing missing" ~committed:rows ~fresh:[ digest; bytes ];
  expect_pass "row order" ~committed:rows ~fresh:[ secs; bytes; digest ];
  expect_fail "digest differs" ~committed:rows
    ~fresh:[ { digest with Row.value = Row.Str "632402c0" }; bytes; secs ];
  expect_fail "bytes differ" ~committed:rows
    ~fresh:[ digest; Row.det "field.mul.into_bytes_per_op" ~unit:"B/op" 80.00048; secs ];
  expect_fail "unit differs" ~committed:rows ~fresh:[ digest; { bytes with Row.unit = "B" }; secs ];
  expect_fail "deterministic row missing" ~committed:rows ~fresh:[ digest; secs ];
  expect_fail "deterministic row extra" ~committed:rows
    ~fresh:(Row.det "lint.extra.constraints" ~unit:"count" 1. :: rows);
  expect_fail "timing became deterministic" ~committed:rows
    ~fresh:[ digest; bytes; { secs with Row.kind = Row.Deterministic } ];
  (* The file format: every float bit, strings and NaN survive. *)
  let floats =
    List.mapi
      (fun i v -> Row.det (Printf.sprintf "f%d" i) ~unit:"x" v)
      [ 0.1; 1. /. 3.; 80.00048; 4379552.; 1e-300; -2.5e17; Float.pi ]
  in
  let all = floats @ rows @ [ Row.timing "nan" ~unit:"ns" Float.nan ] in
  let back = Row.of_string (Row.to_string all) in
  if List.length back <> List.length all then fail "round trip lost rows";
  List.iter2
    (fun (a : Row.t) (b : Row.t) ->
      let same =
        a.Row.name = b.Row.name && a.Row.unit = b.Row.unit && a.Row.kind = b.Row.kind
        &&
        match (a.Row.value, b.Row.value) with
        | Row.Num x, Row.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
        | Row.Str x, Row.Str y -> x = y
        | _ -> false
      in
      if not same then fail "round trip changed row %s" a.Row.name)
    all back;
  (match Row.to_string [ bytes; bytes ] with
  | _ -> fail "duplicate row names accepted"
  | exception Invalid_argument _ -> ());
  print_endline "row: ok"
