(** The one schema of every [BENCH_*.json] file: a flat list of rows.

    A [Deterministic] row is a cost the code alone fixes — a proof digest,
    a constraint count, bytes allocated at [ZEBRA_DOMAINS=1], a block
    count.  [bench check] compares these exactly with the committed file.
    A [Timing] row — seconds, ns/op, and host facts such as domain counts —
    is reported and never compared: on a host with ±30 % jitter a band
    would be a knob, not a gate. *)

type kind = Deterministic | Timing

type value = Num of float | Str of string

type t = { name : string; unit : string; value : value; kind : kind }

(** [det name ~unit v] is a [Deterministic] number. *)
val det : string -> unit:string -> float -> t

(** [text name ~unit s] is a [Deterministic] string (a digest, a root, a
    settlement). *)
val text : string -> unit:string -> string -> t

(** [timing name ~unit v] is a [Timing] number. *)
val timing : string -> unit:string -> float -> t

(** The file format: a JSON array, one row object per line.  Floats keep
    every bit ([Zebra_obs.Json] prints up to 17 significant digits).
    @raise Invalid_argument if two rows share a name. *)
val to_string : t list -> string

(** Inverse of {!to_string} (a NaN, written as [null], reads back as NaN).
    @raise Failure on anything that is not a row list. *)
val of_string : string -> t list

(** [write path rows] writes [to_string rows] to [path]. *)
val write : string -> t list -> unit

(** [read path] parses the row file at [path]. *)
val read : string -> t list

(** [diff ~committed ~fresh] compares the [Deterministic] rows by name and
    returns one line per differing, missing or extra row; [[]] means they
    match.  [Timing] rows are ignored on both sides. *)
val diff : committed:t list -> fresh:t list -> string list
