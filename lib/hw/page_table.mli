(** Sv39-style three-level page tables, stored in simulated physical
    memory and walked by the machine's MMU.

    Enclaves own {e private} page tables inside their protected memory
    (§V-C); the Sanctum page-walk invariant is enforced by the
    [pte_fetch_ok] callback: every physical address the walker touches
    must be approved by the platform for the walking domain. *)

type perms = { r : bool; w : bool; x : bool; u : bool }

type fault = Invalid_mapping | Walk_access_denied of int
(** [Walk_access_denied paddr]: the walker was refused a PTE fetch at
    [paddr] — an isolation violation, reported as an access fault. *)

val levels : int
(** 3 *)

val vpn_bits : int
(** 39-bit virtual addresses. *)

val walk :
  Phys_mem.t ->
  root_ppn:int ->
  vaddr:int ->
  pte_fetch_ok:(int -> bool) ->
  (int * perms, fault) result * int
(** [walk mem ~root_ppn ~vaddr ~pte_fetch_ok] translates [vaddr] to
    [(ppn, perms)] of the leaf (superpage leaves are resolved to the
    4 KiB frame containing [vaddr]), paired with the number of PTE
    fetches the walk performed, failed walks included (for the timing
    model). *)

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
