module Obs = Zebra_obs.Obs
module Json = Zebra_obs.Json

type track = Phase | Bench | Chain | Task of int

type span = {
  id : int;
  name : string;
  track : track;
  parent : int;
  layer : bool;
  start : float;
  mutable stop : float;
  alloc_bytes : float;
  prove_s : float;
}

(* Outside the OCaml heap, so that the probes move neither the heap
   metrics nor the allocation facts. *)
type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let floats n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

type t = {
  traced : bool;
  clock : unit -> float;
  epoch : float;
  mutable rev_spans : span list;
  mutable next_id : int;
  by_id : (int, span) Hashtbl.t;
  mutable bookkeeping : float;
  probe_at : floats;  (** clock reading, less [epoch], when each probe started *)
  probe_s : floats;  (** each probe's processor seconds *)
  mutable probes_n : int;
}

(* The host-speed probe: fixed integer work on a small array, with no
   allocation and no repository code, so that neither the program's
   changes nor its heap move it.  Only the speed of the core does. *)
let probe_rounds = 5_000
let probe_buf = Array.make 64 1

(* The probe kernel's time at the reference speed: its median on the
   2-core x86 host the benchmark was tuned on, while that host was calm. *)
let probe_nominal_s = 0.000410

(* One probe per this many processor seconds (ITIMER_PROF), and room for
   27 minutes of them; a longer run keeps the last probe's speed. *)
let probe_every = 0.025
let probe_capacity = 65_536

let probe_kernel () =
  let a = probe_buf and acc = ref 0 in
  for _ = 1 to probe_rounds do
    for i = 0 to 63 do
      let x = (a.(i) * 0x2545F491) + !acc + i in
      a.(i) <- x lxor (x lsr 17);
      acc := !acc + x
    done
  done;
  ignore (Sys.opaque_identity !acc)

(* The SIGPROF handler.  It allocates nothing, so the run's allocation
   facts stay the same whatever number of probes the host's speed leads
   to. *)
let probe t =
  let n = t.probes_n in
  if n < probe_capacity then begin
    let k0 = Sys.time () in
    probe_kernel ();
    Bigarray.Array1.unsafe_set t.probe_s n (Sys.time () -. k0);
    Bigarray.Array1.unsafe_set t.probe_at n (k0 -. t.epoch);
    t.probes_n <- n + 1
  end

let set_timer every =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = every; it_value = every })

(* Untraced runs time with the process's processor clock (getrusage, to
   the microsecond) and probe the host's speed every [probe_every] of it:
   the benchmark is one thread, so that clock counts its own computation
   only, and the probes say how fast the core ran it.  Traced runs time
   with the wall clock, the one Zebra_obs spans use, so that their span
   totals and the benchmark's spans can be added and subtracted. *)
let create ~traced =
  let clock = if traced then Unix.gettimeofday else Sys.time in
  let t =
    {
      traced;
      clock;
      epoch = clock ();
      rev_spans = [];
      next_id = 0;
      by_id = Hashtbl.create 64;
      bookkeeping = 0.;
      probe_at = floats (if traced then 0 else probe_capacity);
      probe_s = floats (if traced then 0 else probe_capacity);
      probes_n = 0;
    }
  in
  if not traced then begin
    Sys.set_signal Sys.sigprof (Sys.Signal_handle (fun _ -> probe t));
    set_timer probe_every
  end;
  t

let stop t =
  if not t.traced then begin
    set_timer 0.;
    Sys.set_signal Sys.sigprof Sys.Signal_default
  end

let now t = t.clock () -. t.epoch

let probes t =
  List.init t.probes_n (fun i ->
      (Bigarray.Array1.get t.probe_at i, Bigarray.Array1.get t.probe_s i))

(* Probe i runs over [at_i, at_i + k_i] and counts for nothing; between
   the end of one probe and the start of the next, the core is taken to
   run at the mean of their two speeds (probe_nominal_s / k), before the
   first probe at the first's and after the last at the last's. *)
let reference_clock probes =
  match probes with
  | [] -> Fun.id
  | _ ->
    let at = Array.of_list (List.map fst probes) and k = Array.of_list (List.map snd probes) in
    let n = Array.length at in
    let rate i = probe_nominal_s /. k.(i) in
    let seg i = if i + 1 < n then (rate i +. rate (i + 1)) /. 2. else rate i in
    let fin i = at.(i) +. k.(i) in
    (* cum.(i): reference seconds at the start of probe i *)
    let cum = Array.make n (at.(0) *. rate 0) in
    for i = 1 to n - 1 do
      cum.(i) <- cum.(i - 1) +. (Float.max 0. (at.(i) -. fin (i - 1)) *. seg (i - 1))
    done;
    fun x ->
      if x <= at.(0) then x *. rate 0
      else begin
        (* the last probe that started at or before x *)
        let lo = ref 0 and hi = ref (n - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi + 1) / 2 in
          if at.(mid) <= x then lo := mid else hi := mid - 1
        done;
        cum.(!lo) +. (Float.max 0. (x -. fin !lo) *. seg !lo)
      end

let seconds t =
  let r = reference_clock (probes t) in
  fun (a, b) -> r b -. r a

let prove_total () = match Obs.span_stats "snark.prove" with Some (_, s) -> s | None -> 0.

let add t span =
  t.rev_spans <- span :: t.rev_spans;
  Hashtbl.replace t.by_id span.id span;
  t.next_id <- t.next_id + 1

let call t ~track ?(parent = -1) name f =
  if not t.traced then begin
    let t0 = now t in
    let x = f () in
    (x, (t0, now t))
  end
  else begin
    let enter = t.clock () in
    let a0 = Gc.allocated_bytes () in
    let p0 = prove_total () in
    let t0 = t.clock () in
    let x = f () in
    let t1 = t.clock () in
    let a1 = Gc.allocated_bytes () in
    let p1 = prove_total () in
    add t
      {
        id = t.next_id;
        name;
        track;
        parent;
        layer = true;
        start = t0 -. t.epoch;
        stop = t1 -. t.epoch;
        alloc_bytes = a1 -. a0;
        prove_s = p1 -. p0;
      };
    t.bookkeeping <- t.bookkeeping +. (t0 -. enter) +. (t.clock () -. t1);
    (x, (t0 -. t.epoch, t1 -. t.epoch))
  end

let open_group t ~track ?(parent = -1) name =
  if not t.traced then -1
  else begin
    let id = t.next_id in
    let s = now t in
    add t
      {
        id;
        name;
        track;
        parent;
        layer = false;
        start = s;
        stop = s;
        alloc_bytes = 0.;
        prove_s = 0.;
      };
    id
  end

let close_group t id =
  match Hashtbl.find_opt t.by_id id with Some s -> s.stop <- now t | None -> ()

let spans t = List.rev t.rev_spans
let bookkeeping_s t = t.bookkeeping

let tid = function Phase -> 0 | Chain -> 1 | Bench -> 2 | Task i -> 100 + i

let track_name = function
  | Phase -> "phases"
  | Chain -> "chain"
  | Bench -> "bench"
  | Task i -> Printf.sprintf "task %d" i

let to_chrome t =
  let us s = Json.Num (Float.round (s *. 1e6)) in
  let event s =
    let task = match s.track with Task i -> Json.Num (float_of_int i) | _ -> Json.Null in
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (if s.layer then "layer" else "group"));
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", us (s.stop -. s.start));
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int (tid s.track)));
        ( "args",
          Json.Obj
            [
              ("id", Json.Num (float_of_int s.id));
              ("parent", Json.Num (float_of_int s.parent));
              ("task", task);
              ("alloc_bytes", Json.Num s.alloc_bytes);
              ("prove_s", Json.Num s.prove_s);
            ] );
      ]
  in
  let tracks = List.sort_uniq compare (List.map (fun s -> s.track) (spans t)) in
  let meta tr =
    Json.Obj
      [
        ("name", Json.Str "thread_name");
        ("ph", Json.Str "M");
        ("pid", Json.Num 1.);
        ("tid", Json.Num (float_of_int (tid tr)));
        ("args", Json.Obj [ ("name", Json.Str (track_name tr)) ]);
      ]
  in
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.List (List.map meta tracks @ List.map event (spans t)));
    ]
