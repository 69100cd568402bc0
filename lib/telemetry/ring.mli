(** A fixed-capacity ring buffer that overwrites its oldest element on
    overflow — the standard trace-buffer discipline: a long run keeps
    the most recent window of events and counts what it dropped. *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** O(1); overwrites the oldest element when full. *)

val length : 'a t -> int
(** Elements currently held, [<= capacity]. *)

val pushed : 'a t -> int
(** Total elements ever pushed. *)

val dropped : 'a t -> int
(** Elements overwritten so far: [pushed - length]. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Visit the elements held, oldest first, without building a list. *)

val to_list : 'a t -> 'a list
(** Oldest first. *)

val clear : 'a t -> unit
(** Empties the buffer and resets the pushed/dropped accounting. *)
