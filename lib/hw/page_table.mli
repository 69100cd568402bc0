(** Sv39-style three-level page tables, stored in simulated physical
    memory and walked by the machine's MMU.

    Enclaves own {e private} page tables inside their protected memory
    (§V-C); the Sanctum page-walk invariant is enforced by the
    [pte_fetch_ok] callback: every physical address the walker touches
    must be approved by the platform for the walking domain. *)

type perms = { r : bool; w : bool; x : bool; u : bool }

val levels : int
(** 3 *)

val vpn_bits : int
(** 39-bit virtual addresses. *)

val perm_bits : perms -> int
(** [perms] as the PTE holds them: r, w, x and u are bits 1 to 4
    (values 2, 4, 8 and 16). The walk returns a leaf's permissions, and
    the TLB keeps them, in this form. *)

val walk :
  Phys_mem.t -> root_ppn:int -> vaddr:int -> pte_fetch_ok:(int -> bool) -> int
(** [walk mem ~root_ppn ~vaddr ~pte_fetch_ok] translates [vaddr] and
    returns the result as one int, allocating nothing. Read it with the
    functions below. A non-negative result is a walk that reached a
    leaf: {!walk_frame} is the leaf's 4 KiB frame (a superpage leaf is
    resolved to the frame containing [vaddr]) and {!walk_perms} its
    permission bits. A negative result is a failed walk: {!walk_denied}
    tells a PTE fetch that [pte_fetch_ok] refused, an isolation
    violation reported as an access fault, from an invalid mapping.
    {!walk_steps} is either way the number of PTE fetches the walk
    performed, for the timing model; a refused fetch is not counted. *)

val walk_frame : int -> int
val walk_perms : int -> int
val walk_steps : int -> int
val walk_denied : int -> bool

val map :
  Phys_mem.t ->
  root_ppn:int ->
  vaddr:int ->
  ppn:int ->
  perms:perms ->
  alloc_table:(unit -> int) ->
  unit
(** Install a 4 KiB mapping, allocating intermediate tables with
    [alloc_table] (which must return the PPN of a zeroed page). Raises
    [Invalid_argument] if the slot is already mapped. *)

val unmap : Phys_mem.t -> root_ppn:int -> vaddr:int -> bool
(** Clear a leaf mapping; [false] if it was not mapped. *)

val pte_size : int

val encode_pte : ppn:int -> perms:perms -> valid:bool -> int64
val decode_pte : int64 -> (int * perms * bool, unit) result
(** [(ppn, perms, is_leaf)], or [Error ()] when the valid bit is
    clear. *)
