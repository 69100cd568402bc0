(** Page-granular bookkeeping of which protection domain owns each
    physical page. Both platform backends keep this map as the ground
    truth that their hardware primitive (DRAM regions / PMP) enforces. *)

type t

val create : Sanctorum_hw.Phys_mem.t -> initial_owner:Sanctorum_hw.Trap.domain -> t

val owner_at : t -> paddr:int -> Sanctorum_hw.Trap.domain
(** Raises [Invalid_argument] for an out-of-range address. *)

val set_range : t -> lo:int -> hi:int -> Sanctorum_hw.Trap.domain -> unit
(** [lo, hi) must be page-aligned. *)

val range_owned_by :
  t -> lo:int -> hi:int -> Sanctorum_hw.Trap.domain -> bool
(** Every page of [lo, hi) belongs to the given domain. *)

val pages : t -> int

val domain_ranges : t -> Sanctorum_hw.Trap.domain -> (int * int) list
(** Maximal contiguous [lo, hi) byte ranges owned by a domain, in
    ascending order. *)

val iter_ranges :
  t -> (lo:int -> hi:int -> domain:Sanctorum_hw.Trap.domain -> unit) -> unit
(** [f] is called once per maximal same-owner [lo, hi) byte range, in
    ascending address order; the ranges partition the map. The range
    list is cached between {!set_range} calls, so both this and
    {!domain_ranges} cost O(ranges) except on the first call after a
    change, which rescans the pages once. *)
