(** A minimal JSON value type with a renderer and a strict parser.

    Stdlib-only, just enough for the observability snapshot format
    ({!Obs.snapshot}), the benches' [BENCH_*.json] row files and the tests
    round-tripping both.  Object member order is preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string

(** @raise Parse_error on malformed input or trailing garbage. *)
val of_string : string -> t

(** [member key json] — object member lookup ([None] on non-objects). *)
val member : string -> t -> t option

(** Structural equality (numbers compared exactly). *)
val equal : t -> t -> bool
