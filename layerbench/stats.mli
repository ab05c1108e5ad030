(** Exact order statistics over a run's own stored samples.

    Percentiles are nearest-rank over the sorted samples — never read from
    a log-bucket histogram, whose bucket clamp can report the same value
    for p50 and p99. *)

(** [percentile q xs] is the nearest-rank [q]-quantile of [xs] for [q] in
    [(0, 1]]: the [ceil (q * n)]-th smallest sample, with [q] taken to
    thousandths.  [nan] when [xs] is
    empty.  @raise Invalid_argument if [q] is outside [(0, 1]]. *)
val percentile : float -> float list -> float

val median : float list -> float

(** [tail xs] is the highest of p90, p99 and p99.9 that still has at
    least ten samples strictly above its rank, as [(q, value)]; [None]
    when even p90 has fewer than ten (under 100 samples). *)
val tail : float list -> (float * float) option

(** Percentile label, e.g. ["p90"], ["p99.9"]. *)
val label : float -> string
