type data = {
  items : int;
  workers : int;
  choices : int;
  answers : int option array array;
}

type estimate = {
  labels : int array;
  class_priors : float array;
  confusion : float array array array;
  log_likelihood : float;
  iterations : int;
}

let validate d =
  if d.items <= 0 || d.workers <= 0 || d.choices < 2 then
    invalid_arg "Truth_inference: bad dimensions";
  if Array.length d.answers <> d.items then invalid_arg "Truth_inference: items mismatch";
  Array.iter
    (fun row ->
      if Array.length row <> d.workers then invalid_arg "Truth_inference: workers mismatch";
      Array.iter
        (function
          | Some a when a < 0 || a >= d.choices ->
            invalid_arg "Truth_inference: answer out of range"
          | Some _ | None -> ())
        row)
    d.answers

let majority d =
  Array.map
    (fun row ->
      let counts = Array.make d.choices 0 in
      Array.iter (function Some a -> counts.(a) <- counts.(a) + 1 | None -> ()) row;
      let best = ref 0 in
      Array.iteri (fun c k -> if k > counts.(!best) then best := c) counts;
      !best)
    d.answers

(* Laplace smoothing keeps confusion rows proper when a worker never saw a
   class in the current soft assignment. *)
let smoothing = 0.01

(* EM stops after [max_iters] rounds or once the log-likelihood gains less
   than [tol]. *)
let max_iters = 100
let tol = 1e-6

let dawid_skene d =
  validate d;
  let k = d.choices in
  (* Soft class assignments, initialised from majority voting. *)
  let q = Array.make_matrix d.items k 0.0 in
  Array.iteri (fun i m -> q.(i).(m) <- 1.0) (majority d);
  let priors = Array.make k (1.0 /. float_of_int k) in
  let confusion =
    Array.init d.workers (fun _ -> Array.make_matrix k k (1.0 /. float_of_int k))
  in
  let log_lik = ref neg_infinity in
  let iters = ref 0 in
  (try
     for it = 1 to max_iters do
       iters := it;
       (* M step: priors and confusion matrices from q. *)
       for c = 0 to k - 1 do
         let s = ref 0.0 in
         for i = 0 to d.items - 1 do
           s := !s +. q.(i).(c)
         done;
         priors.(c) <- (!s +. smoothing) /. (float_of_int d.items +. (smoothing *. float_of_int k))
       done;
       for w = 0 to d.workers - 1 do
         for truth = 0 to k - 1 do
           let row = Array.make k smoothing in
           let total = ref (smoothing *. float_of_int k) in
           for i = 0 to d.items - 1 do
             match d.answers.(i).(w) with
             | Some obs ->
               row.(obs) <- row.(obs) +. q.(i).(truth);
               total := !total +. q.(i).(truth)
             | None -> ()
           done;
           for obs = 0 to k - 1 do
             confusion.(w).(truth).(obs) <- row.(obs) /. !total
           done
         done
       done;
       (* E step: posterior class assignment per item. *)
       let ll = ref 0.0 in
       for i = 0 to d.items - 1 do
         let logp = Array.make k 0.0 in
         for c = 0 to k - 1 do
           let acc = ref (log priors.(c)) in
           for w = 0 to d.workers - 1 do
             match d.answers.(i).(w) with
             | Some obs -> acc := !acc +. log confusion.(w).(c).(obs)
             | None -> ()
           done;
           logp.(c) <- !acc
         done;
         let mx = Array.fold_left max neg_infinity logp in
         let z = ref 0.0 in
         for c = 0 to k - 1 do
           z := !z +. exp (logp.(c) -. mx)
         done;
         ll := !ll +. mx +. log !z;
         for c = 0 to k - 1 do
           q.(i).(c) <- exp (logp.(c) -. mx) /. !z
         done
       done;
       if !ll -. !log_lik < tol && it > 1 then begin
         log_lik := !ll;
         raise Exit
       end;
       log_lik := !ll
     done
   with Exit -> ());
  let labels =
    Array.map
      (fun qi ->
        let best = ref 0 in
        Array.iteri (fun c p -> if p > qi.(!best) then best := c) qi;
        !best)
      q
  in
  { labels; class_priors = priors; confusion; log_likelihood = !log_lik; iterations = !iters }

let accuracy ~truth labels =
  if Array.length truth <> Array.length labels then
    invalid_arg "Truth_inference.accuracy: length mismatch";
  let hits = ref 0 in
  Array.iteri (fun i t -> if labels.(i) = t then incr hits) truth;
  float_of_int !hits /. float_of_int (Array.length truth)

(* Uniform float in [0,1) from the byte source. *)
let uniform random_bytes =
  let b = random_bytes 7 in
  let v = ref 0 in
  Bytes.iter (fun c -> v := (!v lsl 8) lor Char.code c) b;
  float_of_int !v /. float_of_int (1 lsl 56)

let synthesize ~random_bytes ~items ~choices ~reliabilities ?(missing_rate = 0.0) () =
  let workers = Array.length reliabilities in
  if workers = 0 then invalid_arg "Truth_inference.synthesize: no workers";
  let truth = Array.init items (fun _ -> int_of_float (uniform random_bytes *. float_of_int choices)) in
  let truth = Array.map (fun t -> min t (choices - 1)) truth in
  let answers =
    Array.init items (fun i ->
        Array.init workers (fun w ->
            if uniform random_bytes < missing_rate then None
            else if uniform random_bytes < reliabilities.(w) then Some truth.(i)
            else begin
              let wrong = int_of_float (uniform random_bytes *. float_of_int (choices - 1)) in
              let wrong = min wrong (choices - 2) in
              Some (if wrong >= truth.(i) then wrong + 1 else wrong)
            end))
  in
  ({ items; workers; choices; answers }, truth)
