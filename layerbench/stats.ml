(* Nearest rank ceil (q * n), with q taken in thousandths and the ceiling
   done in integers so that q = 0.9, n = 100 gives rank 90 exactly. *)
let rank q n = ((int_of_float (Float.round (q *. 1000.)) * n) + 999) / 1000

let percentile q xs =
  if not (q > 0. && q <= 1.) then invalid_arg "Stats.percentile: q outside (0, 1]";
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    a.(max 1 (min n (rank q n)) - 1)

let median xs = percentile 0.5 xs

let tail xs =
  let n = List.length xs in
  List.fold_left
    (fun acc q -> if n - rank q n >= 10 then Some (q, percentile q xs) else acc)
    None [ 0.9; 0.99; 0.999 ]

let label q = Printf.sprintf "p%g" (q *. 100.)
