(** A small fully-associative TLB.

    The Sanctum page-walk invariant requires a TLB shootdown whenever a
    DRAM region changes protection domain (§VII-A); the monitor performs
    a full flush on every domain switch. *)

type perms = { r : bool; w : bool; x : bool; u : bool }

type t

val create : entries:int -> t

val lookup : t -> vpn:int -> (int * perms) option
(** [lookup t ~vpn] is [Some (ppn, perms)] on a hit. Convenience
    wrapper around {!find}; allocates on a hit. *)

val find : t -> vpn:int -> int
(** Allocation-free lookup: the slot index holding [vpn], or [-1] on a
    miss. Counts exactly one hit or one miss, like {!lookup} (of which
    it is the implementation), and promotes the hit slot to the MRU
    probe position. Slot indices are invalidated by {!insert} and the
    flushes — read them back immediately via {!slot_ppn} /
    {!slot_perms}. *)

val slot_ppn : t -> int -> int
val slot_perms : t -> int -> perms

val note_hits : t -> int -> unit
(** [note_hits t n] accounts [n] hits without performing a lookup and
    without MRU promotion. The superblock tier defers its per-fetch
    hits to one call at block exit: every fetch in a block reads the
    page its entry {!probe} found, so the stepped path would have hit
    on each. *)

val probe : t -> vpn:int -> int
(** Pure {!find}: the slot index holding [vpn], or [-1] — but with no
    statistics and no MRU promotion. The superblock tier probes before
    committing to an access; pairing a successful probe with
    {!commit_hit} is observably identical to one {!find}, while a
    failed probe leaves the TLB untouched for the stepped replay. *)

val commit_hit : t -> int -> unit
(** [commit_hit t slot] performs the mutating half of a hit on [slot]:
    one hit counted and the slot promoted to the MRU probe position.
    [probe] + [commit_hit] = [find] on the hit path. *)

val insert : t -> vpn:int -> ppn:int -> perms:perms -> unit

val generation : t -> int
(** Monotonic counter bumped by every {!insert}, {!flush} and
    {!flush_vpn} — i.e. by every mutation of the translation contents.
    Two equal generation numbers guarantee the TLB holds exactly the
    same entries, which is what lets a superblock's memory-op guard
    trust that nothing was inserted or flushed since the block's
    entry. *)

val flush : t -> unit
(** Invalidates every entry in O(1): one epoch increment. *)

val flush_vpn : t -> vpn:int -> unit
(** Invalidates the entries of one page, one by one. *)

val entry_count : t -> int
(** Number of currently valid entries. *)

val iter_entries : t -> (vpn:int -> ppn:int -> perms:perms -> unit) -> unit
(** Read-only view of every valid entry, for external checkers (the
    [Sanctorum_analysis] stale-translation invariant). Does not touch
    hit/miss statistics or replacement state. *)

val stats : t -> int * int
(** (hits, misses) of {!lookup} since creation. *)
