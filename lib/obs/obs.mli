(** Process-wide observability: counters, gauges, log-bucket latency
    histograms and nestable phase spans behind one global registry.

    Everything is off by default ({!enabled} is [false]): instrumented hot
    paths pay a single boolean test and nothing else, so shipping the hooks
    costs the benchmarks nothing.  Benches, the [zebra stats] subcommand and
    tests flip {!set_enabled}, drive a workload, and read the registry back
    as a JSON snapshot ({!to_json_string}, what [zebra stats --json] prints) or a
    human metric tree ({!render_tree}).

    {b Naming convention}: dotted lowercase paths mirroring the subsystem —
    [snark.prove.fft], [chain.mine.exec], [protocol.reward].  The dots are
    what {!render_tree} folds into a tree, so a stage span should extend its
    parent's name (the span stack is tracked but names stay explicit).

    Metric creation ([make]) is idempotent — two [make "x"] calls share one
    cell — and allowed while disabled; only {e recording} is gated.

    {b Domain-safety}: every operation here may be called from any domain
    (the parallel pool's workers execute instrumented code).  Counters,
    gauges and the enable flag are atomics; histogram observations,
    interning and whole-registry reads ([snapshot], [reset],
    [render_tree]) serialise on one internal mutex; the span {e stack} is
    domain-local, so [with_span] nesting and {!current_span} are per
    domain while the recorded durations aggregate globally. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** Zero every counter/gauge/histogram and drop all recorded spans.
    Registered metrics stay registered. *)
val reset : unit -> unit

module Counter : sig
  type t

  val make : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  val value : t -> float
end

(** Fixed log-bucket histograms: bucket [i] holds observations in
    [(base * 2^(i-1), base * 2^i]] with [base = 1e-6] (so for latencies in
    seconds the buckets are 1us, 2us, 4us, ... ~= 1 hour).  Exact count,
    sum, min and max are kept alongside the buckets. *)
module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float

  (** [nan] while empty. *)
  val min_value : t -> float

  val max_value : t -> float

  (** Non-empty buckets only, as [(upper_bound, count)], ascending. *)
  val buckets : t -> (float * int) list
end

(** {1 Phase spans}

    A span times one region and records the duration into a histogram named
    by the span.  Spans nest: the innermost active name is visible via
    {!current_span} (used by tests and debug output).  The duration is
    recorded even when the region raises.

    Each span also maintains a companion gauge [<name>.alloc_bytes]: the
    bytes the {e calling domain} allocated over the most recent
    execution of the span, minor and major heap alike, exact without a
    forced collection (allocation on pool worker domains is not
    attributed).  This makes allocation regressions in hot phases
    (e.g. [snark.prove.fft.alloc_bytes]) visible in [zebra stats] and
    the BENCH exports. *)

val with_span : string -> (unit -> 'a) -> 'a

(** Innermost active span, if observability is enabled and a span is open. *)
val current_span : unit -> string option

(** [(count, total_seconds)] recorded under a span name, if any. *)
val span_stats : string -> (int * float) option

(** All span names recorded so far, sorted. *)
val span_names : unit -> string list

(** {1 Export} *)

(** The whole registry as
    [{"enabled": ..., "counters": {...}, "gauges": {...},
      "histograms": {...}, "spans": {...}}] where histogram/span entries
    carry [count], [total], [mean], [min], [max] and [buckets]
    (seconds for spans). *)
val snapshot : unit -> Json.t

val to_json_string : unit -> string

(** All registered counters whose dotted name starts with [prefix], with
    their current values, sorted by name — e.g.
    [counters_with_prefix "faults."] for a fault-injection summary line. *)
val counters_with_prefix : string -> (string * int) list

(** Pretty metric tree grouped on the dots of the naming convention. *)
val render_tree : unit -> string
