(* Nearest-rank percentiles on known distributions. *)
open Layerbench

let check name expected got =
  if not (Float.equal expected got) then begin
    Printf.eprintf "%s: expected %g, got %g\n" name expected got;
    exit 1
  end

let () =
  let hundred = List.init 100 (fun i -> float_of_int (100 - i)) in
  check "p50 of 1..100" 50. (Stats.median hundred);
  check "p90 of 1..100" 90. (Stats.percentile 0.9 hundred);
  check "p99 of 1..100" 99. (Stats.percentile 0.99 hundred);
  check "p100 of 1..100" 100. (Stats.percentile 1. hundred);
  check "p1 of 1..100" 1. (Stats.percentile 0.01 hundred);
  check "median of one" 7. (Stats.median [ 7. ]);
  check "median of two" 1. (Stats.median [ 2.; 1. ]);
  check "median of three" 5. (Stats.median [ 9.; 1.; 5. ]);
  if not (Float.is_nan (Stats.median [])) then exit 1;
  (* Ten samples beyond the rank: p90 needs 100 samples, p99 1 000. *)
  (match Stats.tail hundred with
  | Some (q, v) ->
    check "tail q at 100" 0.9 q;
    check "tail value at 100" 90. v
  | None -> exit 1);
  if Stats.tail (List.init 99 float_of_int) <> None then exit 1;
  let thousand = List.init 1000 (fun i -> float_of_int (i + 1)) in
  (match Stats.tail thousand with
  | Some (q, v) ->
    check "tail q at 1000" 0.99 q;
    check "tail value at 1000" 990. v
  | None -> exit 1);
  (* A skewed sample: a log-2 bucket would clamp p50 and p99 together. *)
  let skewed = List.init 1000 (fun i -> if i < 990 then 1. else 1000.) in
  check "skewed p50" 1. (Stats.median skewed);
  check "skewed p99" 1. (Stats.percentile 0.99 skewed);
  check "skewed p99.9" 1000. (Stats.percentile 0.999 skewed);
  check "label" 0. (if Stats.label 0.999 = "p99.9" then 0. else 1.);
  print_endline "stats: ok"
