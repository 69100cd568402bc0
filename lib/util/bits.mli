(** Bit-level helpers shared by the hardware model, the platform backends
    and the OS model. *)

val is_power_of_two : int -> bool
(** [is_power_of_two n] holds for n = 1, 2, 4, ... *)

val log2 : int -> int
(** [log2 n] for a power of two [n] is the exponent. Raises
    [Invalid_argument] otherwise. *)

val align_up : int -> int -> int
(** [align_up x a] rounds [x] up to the next multiple of [a] (a power of
    two). *)

val align_down : int -> int -> int
(** [align_down x a] rounds [x] down to a multiple of [a]. *)

val extract : int -> lo:int -> width:int -> int
(** [extract x ~lo ~width] is bits [lo .. lo+width-1] of [x]. *)

val sign_extend : int -> width:int -> int
(** [sign_extend x ~width] interprets the low [width] bits of [x] as a
    two's-complement value. *)
