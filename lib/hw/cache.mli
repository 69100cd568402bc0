(** A set-associative cache timing model with LRU replacement.

    Used twice: per-core private L1s (flushed by the monitor on every
    protection-domain switch) and a shared L2/LLC (partitioned by page
    coloring on the Sanctum platform, shared on Keystone). The cache
    carries no data — only tags — because its purpose is timing: it is
    the surface the paper's cache side-channel adversary probes. *)

type t

type config = {
  sets : int;  (** power of two *)
  ways : int;
  line_bytes : int;  (** power of two *)
  hit_cycles : int;
  miss_cycles : int;
}

val default_l1 : config
val default_l2 : config

val create : config -> t

val config : t -> config

val set_index_fn : t -> (int -> int) -> unit
(** Override the paddr→set mapping. The Sanctum platform installs a
    page-coloring function here so that distinct DRAM regions map to
    disjoint sets. *)

val access : t -> paddr:int -> bool * int
(** [access t ~paddr] touches the line holding [paddr]; returns
    [(hit, cycles)] and updates LRU/fill state. Convenience wrapper
    around {!access_hit}; allocates the result pair. *)

val access_hit : t -> paddr:int -> bool
(** Allocation-free {!access}: same LRU/fill/statistics side effects,
    returns only whether the access hit. The caller derives the cycle
    cost from {!config} ([hit_cycles] / [miss_cycles]). *)

val note_repeat_hits : t -> paddr:int -> n:int -> unit
(** [note_repeat_hits t ~paddr ~n] accounts [n] additional consecutive
    hits on the line holding [paddr]. Precondition: that line was the
    target of the immediately preceding access on this cache and
    nothing else has been accessed since (checked by an assertion on
    the MRU way). Under that precondition the result — tick, LRU
    order, statistics — is bit-identical to [n] sequential
    {!access_hit} calls; the superblock tier uses it to flush a batch
    of same-line instruction fetches in O(1). *)

val probe : t -> paddr:int -> bool
(** Non-destructive lookup: would this access hit? (Used by attack
    oracles in tests; real attackers must use {!access} timing.) *)

val iter_tags : t -> (set:int -> paddr:int -> unit) -> unit
(** Read-only view of every valid line, for external checkers (the
    [Sanctorum_analysis] flush-residue invariant). [paddr] is the first
    byte of the cached line. Does not disturb LRU or statistics. *)

val flush_all : t -> unit
(** Invalidates every line in O(1): one epoch increment. *)

val flush_set : t -> int -> unit
(** Invalidates the lines of one set, one by one. *)

val set_of_paddr : t -> int -> int

val stats : t -> int * int
(** (hits, misses) since creation or [reset_stats]. *)

val hit_rate : t -> float
(** [hits / (hits + misses)], or [0.] before any access. *)

val reset_stats : t -> unit
