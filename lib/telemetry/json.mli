(** A minimal JSON tree and printer — just enough for the trace
    exporters. No external dependency; strings are assumed UTF-8 and
    escaped conservatively. The tests read the exports back with their
    own reader ([test/json_read.ml]). *)

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
