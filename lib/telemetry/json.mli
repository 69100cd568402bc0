(** A minimal JSON tree, printer and parser — just enough for the
    trace exporters and for tests to round-trip their output. No
    external dependency; strings are assumed UTF-8 and escaped
    conservatively. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. A NaN or infinite [Float] renders
    as [null]. *)

val to_buffer : Buffer.t -> t -> unit

val parse : string -> (t, string) result
(** Strict parse of one JSON value (surrounding whitespace allowed).
    [\u] escapes below 0x80 are decoded; higher code points are
    replaced with ['?'] — fine for structural validation. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] elsewhere. *)

val to_list_opt : t -> t list option
val to_string_opt : t -> string option
val to_int_opt : t -> int option
