(* The reference clock on hand-placed probes. *)
open Layerbench

let check name expected got =
  if Float.abs (expected -. got) > 1e-12 then begin
    Printf.eprintf "%s: expected %.15g, got %.15g\n" name expected got;
    exit 1
  end

let () =
  let n = Tracer.probe_nominal_s in
  check "no probes: identity" 2.5 (Tracer.reference_clock [] 2.5);
  (* A probe at full speed at 1 s, one at half speed at 2 s. *)
  let r = Tracer.reference_clock [ (1., n); (2., 2. *. n) ] in
  let secs a b = r b -. r a in
  check "before the first probe, its speed" 1. (secs 0. 1.);
  check "inside a probe, nothing" 0. (secs 1. (1. +. n));
  check "between probes, the mean speed" ((1. -. n) *. 0.75) (secs (1. +. n) 2.);
  check "inside the last probe, nothing" 0. (secs 2. (2. +. (2. *. n)));
  check "after the last probe, its speed" 0.5 (secs (2. +. (2. *. n)) (3. +. (2. *. n)));
  check "an interval across both probes"
    (0.5 +. ((1. -. n) *. 0.75) +. 0.25)
    (secs 0.5 (2.5 +. (2. *. n)));
  print_endline "tracer: ok"
