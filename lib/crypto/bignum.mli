(** Arbitrary-precision natural numbers, built from scratch (no zarith in
    the sealed environment). The attestation signatures do their scalar
    arithmetic mod the group order here; {!Field} converts through it
    but multiplies on its own limbs.

    Representation: little-endian arrays of 26-bit limbs, always
    normalized (no leading zero limb). All values are non-negative. *)

type t

val zero : t
val one : t

val of_int : int -> t
(** Raises [Invalid_argument] on negative input. *)

val of_bytes_be : string -> t
(** Big-endian bytes to number. *)

val to_bytes_be : len:int -> t -> string
(** Fixed-width big-endian rendering. Raises [Invalid_argument] if the
    value needs more than [len] bytes. *)

val of_bytes_le : string -> t
val to_bytes_le : len:int -> t -> string

val to_hex : t -> string

val of_decimal : string -> t
(** Parse a base-10 literal (used for published curve constants). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val bit_length : t -> int
val test_bit : t -> int -> bool

val add : t -> t -> t
val sub : t -> t -> t
(** Raises [Invalid_argument] if the result would be negative. *)

val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]; Knuth algorithm D. Raises
    [Division_by_zero] if [b] is zero. *)

val rem : t -> t -> t

val mod_add : t -> t -> m:t -> t
val mod_mul : t -> t -> m:t -> t
