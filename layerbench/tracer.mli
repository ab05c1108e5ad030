(** The benchmark's own layer spans, kept in memory.

    Every public client or chain call the benchmark makes runs under
    {!call}, which always returns the interval the call ran in.

    An untraced tracer times with the process's processor clock and,
    every 25 ms of it (a SIGPROF timer, until {!stop}), runs a fixed
    probe kernel whose time measures how fast the shared host is running
    at that moment; {!seconds} turns intervals into reference seconds
    with those probes, leaving the probes' own time out.  A tracer
    created with [~traced:true] times with the wall clock, runs no
    probes, and keeps a span per call — name, track, parent, start, stop,
    bytes allocated, and the [snark.prove] seconds that {!Zebra_obs.Obs}
    recorded inside it — and writes them at exit as Chrome trace-event
    JSON.  Layer spans never nest (the benchmark is one
    thread and wraps each library call once), so their durations plus
    the time outside them add up to the traced wall clock. *)

(** Where a span is drawn.  Chain spans get a track of their own because
    one block serves many tasks. *)
type track =
  | Phase  (** setup / client / replay / check phases *)
  | Bench  (** set-up, follower boot, collection and check calls *)
  | Chain
  | Task of int

type span = {
  id : int;
  name : string;
  track : track;
  parent : int;  (** id of the enclosing group span, -1 at top level *)
  layer : bool;  (** a timed library call, as opposed to a group *)
  start : float;  (** seconds since the tracer was created *)
  mutable stop : float;
  alloc_bytes : float;
  prove_s : float;
}

type t

val create : traced:bool -> t

(** Seconds since the tracer was created, on the tracer's clock: the
    wall clock when traced, the process's processor clock otherwise. *)
val now : t -> float

(** Stops the host-speed probes.  Call it once the last interval has been
    measured and before printing. *)
val stop : t -> unit

(** [call t ~track ~parent name f] runs [f] and returns its result with
    the interval it ran in, as two {!now} readings. *)
val call : t -> track:track -> ?parent:int -> string -> (unit -> 'a) -> 'a * (float * float)

(** [open_group t ~track ?parent name] starts a group span (a phase, or a
    task's life from funding to reward) and returns its id; -1 when not
    traced. *)
val open_group : t -> track:track -> ?parent:int -> string -> int

val close_group : t -> int -> unit

(** Recorded spans, oldest first (empty when not traced). *)
val spans : t -> span list

(** Seconds the tracer spent on its own bookkeeping (clock, allocation
    and [Zebra_obs] reads around each call). *)
val bookkeeping_s : t -> float

(** Host-speed probes of an untraced run, oldest first: [(at, seconds)],
    where [at] is {!now} when the probe started and [seconds] the probe
    kernel's processor time. *)
val probes : t -> (float * float) list

(** The probe kernel's time at the reference speed. *)
val probe_nominal_s : float

(** [reference_clock probes] maps {!now} readings of a run with these
    {!probes} to reference seconds since the tracer was created.  A
    probe's own time counts for nothing; between the end of one probe and
    the start of the next the core runs at the mean of their two speeds,
    a probe's speed being {!probe_nominal_s} over its time; before the
    first probe at the first's speed and after the last at the last's.
    The identity when there are no probes. *)
val reference_clock : (float * float) list -> float -> float

(** [seconds t] converts an interval between two {!now} readings into
    reference seconds: processor seconds scaled, piece by piece between
    probes, to the speed at which the probe kernel takes
    {!probe_nominal_s}.  Apply it once the run is over, so that every
    interval has a probe on either side.  The probes' own time counts for
    nothing.  For a traced run it is the
    interval's length in wall seconds. *)
val seconds : t -> float * float -> float

(** The spans as a Chrome trace-event document. *)
val to_chrome : t -> Zebra_obs.Json.t
