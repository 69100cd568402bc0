(** A set-associative cache timing model with LRU replacement.

    Used twice: per-core private L1s (flushed by the monitor on every
    protection-domain switch) and a shared L2/LLC (partitioned by page
    coloring on the Sanctum platform, shared on Keystone). The cache
    carries no data — only tags — because its purpose is timing: it is
    the surface the paper's cache side-channel adversary probes. It
    keeps no counts either: the machine counts each access in its
    [hw.cache.*] counters. *)

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
(** A cache holds its lines' epochs, tags and LRU stamps in three flat
    int arrays of [sets * ways] and an MRU way per set: creating one
    allocates those four arrays and no record per line. *)

val config : t -> config

val set_index_fn : t -> (int -> int) -> unit
(** Override the paddr→set mapping. The Sanctum platform installs a
    page-coloring function here so that distinct DRAM regions map to
    disjoint sets. *)

val access_hit : t -> paddr:int -> bool
(** [access_hit t ~paddr] touches the line holding [paddr], updates
    LRU/fill state and returns whether the access hit, allocating
    nothing. The caller derives the cycle cost from {!config}
    ([hit_cycles] / [miss_cycles]). *)

val note_repeat_hits : t -> paddr:int -> n:int -> unit
(** [note_repeat_hits t ~paddr ~n] accounts [n] further hits on the
    line holding [paddr]. Precondition: that line is valid (checked by
    an assertion); it need not be its set's MRU way. The result — tick,
    LRU stamps and MRU ways — is bit-identical to [n] sequential
    {!access_hit} calls on that line. The superblock tier defers the L1
    hits on its two open lines, the fetch line and the data line, and
    applies each line's here in the order of its last deferred hit:
    with [n] the distance from the previous line's last hit, the two
    updates leave what the interleaved sequential calls would, the two
    lines sharing a set included. *)

val probe : t -> paddr:int -> bool
(** Non-destructive lookup: would this access hit? (Used by attack
    oracles in tests; real attackers must use {!access_hit} timing.) *)

val iter_tags : t -> (set:int -> paddr:int -> unit) -> unit
(** Read-only view of every valid line, for external checkers (the
    [Sanctorum_analysis] flush-residue invariant). [paddr] is the first
    byte of the cached line. Does not disturb LRU state. *)

val iter_lines : t -> (set:int -> paddr:int -> lru:int -> unit) -> unit
(** {!iter_tags} with each line's LRU stamp, for differential tests. *)

val tick : t -> int
(** The access count the LRU stamps are drawn from. *)

val lowest_fill : t -> int
(** The lowest line address a fill has ever tagged in this cache
    ([max_int] before the first fill); flushes leave it. The fill path
    is the only code that writes a tag, so {!iter_tags} reports no
    line below it: a checker looking for lines below some address can
    skip the scan while this is not below that address. *)

val flush_all : t -> unit
(** Invalidates every line in O(1): one epoch increment. *)

val flush_range : t -> lo:int -> hi:int -> unit
(** Invalidates every line of each set that a line of [lo, hi) maps
    to under the index function in force, in one pass over the range's
    lines (at most [sets] of them under the default index). *)

val set_of_paddr : t -> int -> int
