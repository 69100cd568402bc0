(** A small fully-associative TLB.

    The Sanctum page-walk invariant requires a TLB shootdown whenever a
    DRAM region changes protection domain (§VII-A); the monitor performs
    a full flush on every domain switch. The TLB keeps no counts: the
    machine counts each lookup in its [hw.tlb.*] counters.

    Entries live in flat int arrays: a lookup reads ints, and a refill
    ({!insert}) writes four and allocates nothing. An entry's
    permissions are the leaf PTE's r/w/x/u bits in place (bits 1-4,
    {!Page_table.perm_bits}), so an access check is one mask compare. *)

type t

val create : entries:int -> t

val find : t -> vpn:int -> int
(** Allocation-free lookup: the slot index holding [vpn], or [-1] on a
    miss; a hit promotes its slot to the MRU probe position. [find] is
    {!probe} followed, on a hit, by {!commit_hit}. A slot index, read
    back via {!slot_ppn} / {!slot_perms}, holds its entry until the
    next {!insert} or {!flush}, the only mutations of the translation
    contents. A superblock flushes nothing and inserts only on a miss,
    so it reuses a slot its own probe or insert found until one of its
    own inserts takes that slot. *)

val slot_ppn : t -> int -> int

val slot_perms : t -> int -> int
(** The slot's permission bits, as {!insert} took them. *)

val probe : t -> vpn:int -> int
(** Pure {!find}: the slot index holding [vpn], or [-1] — but with no
    MRU promotion. The superblock tier probes before committing to an
    access, and on a miss walks the page table without inserting; a
    guard that declines leaves the TLB untouched for the stepped
    replay. *)

val commit_hit : t -> int -> unit
(** [commit_hit t slot] performs the mutating half of a hit on [slot]:
    it promotes the slot to the MRU probe position. *)

val insert : t -> vpn:int -> ppn:int -> perms:int -> int
(** [insert t ~vpn ~ppn ~perms] fills the slot already holding [vpn],
    else the round-robin slot, makes it the MRU slot and returns it.
    [perms] holds the leaf PTE's r/w/x/u bits ({!Page_table.perm_bits}). *)

val undo_insert : t -> unit
(** Puts back what the last {!insert} replaced: its slot's previous
    entry, the round-robin pointer and the MRU slot. A superblock's
    entry refills the TLB for its first instruction, and undoes the
    refill when that instruction retires nothing. *)

val flush : t -> unit
(** Invalidates every entry in O(1): one epoch increment. *)

val entry_count : t -> int
(** Number of currently valid entries. *)

val iter_entries : t -> (vpn:int -> ppn:int -> perms:int -> unit) -> unit
(** Read-only view of every valid entry, for external checkers (the
    [Sanctorum_analysis] stale-translation invariant). Does not touch
    replacement state. *)
