(** Deterministic binary encoding, shared by proof serialisation, contract
    storage and transaction payloads.

    The format is canonical by construction (fixed-width big-endian integers
    and length-prefixed byte strings), so encoded values can be hashed and
    compared across simulated blockchain nodes. *)

exception Decode_error of string

(** {1 Writer} *)

type writer

val writer : unit -> writer
val to_bytes : writer -> bytes

val u8 : writer -> int -> unit

(** Big-endian, 0 <= v < 2^32. *)
val u32 : writer -> int -> unit

(** Big-endian, 0 <= v < 2^62 (OCaml int). *)
val u64 : writer -> int -> unit

(** Length-prefixed (u32) byte string. *)
val bytes : writer -> bytes -> unit

val string : writer -> string -> unit
val list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
val array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

(** {1 Reader} *)

type reader

val reader : bytes -> reader

val read_u8 : reader -> int
val read_u32 : reader -> int

(** Big-endian, 0 <= v < 2^62, the writer's bound.
    @raise Decode_error on a larger value. *)
val read_u64 : reader -> int

val read_bytes : reader -> bytes
val read_string : reader -> string

(** [read_list r f] reads a u32 count, then that many elements with [f],
    which must consume at least one byte each.
    @raise Decode_error if the count exceeds the bytes left, before
    allocating anything for the elements. *)
val read_list : reader -> (reader -> 'a) -> 'a list

(** As {!read_list}. *)
val read_array : reader -> (reader -> 'a) -> 'a array

(** [encode f x] / [decode f b] one-shot helpers; [decode] checks that the
    value consumes the whole buffer. *)
val encode : (writer -> 'a -> unit) -> 'a -> bytes

val decode : (reader -> 'a) -> bytes -> 'a
