(** Arbitrary-precision natural numbers, built from scratch (no zarith in
    the sealed environment). Used by the attestation signature scheme and
    key agreement.

    Representation: little-endian arrays of 26-bit limbs, always
    normalized (no leading zero limb). All values are non-negative. *)

type t

val zero : t
val one : t
val two : t

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
val is_even : t -> bool
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
val mod_sub : t -> t -> m:t -> t
val mod_mul : t -> t -> m:t -> t

(** Montgomery multiplication for a fixed odd modulus. A context
    precomputes everything the CIOS reduction needs, after which a
    modular multiply is a single limb pass with no division — the
    throughput tier under the attestation field and exponentiations.

    Montgomery residues are ordinary values [< modulus]; [to_mont] maps
    [x] to [x·R mod m] and [of_mont] maps back ([R = 2^(26·k)] for a
    [k]-limb modulus). *)
module Mont : sig
  type ctx

  val create : t -> ctx
  (** Raises [Invalid_argument] if the modulus is even or zero. *)

  val modulus : ctx -> t

  val one_m : ctx -> t
  (** The Montgomery form of 1, i.e. [R mod m]. *)

  val to_mont : ctx -> t -> t
  (** Reduces its argument mod [m] first, so any value is accepted. *)

  val of_mont : ctx -> t -> t
  val mont_mul : ctx -> t -> t -> t
  (** Montgomery product of two residues: [a·b·R^-1 mod m]. *)
end

val pp : Format.formatter -> t -> unit
(** Prints in hexadecimal. *)
