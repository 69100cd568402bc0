(** RISC-V physical memory protection (priv. spec [13]), the isolation
    primitive of the Keystone platform (§VII-B): a per-core list of
    prioritized address ranges white-listing accesses by privilege mode.

    We model ranges directly (equivalent to TOR/NAPOT encodings) with
    standard priority-match semantics: the lowest-numbered matching
    entry decides; with no match, M-mode is allowed and S/U denied. *)

type t

type privilege = U | S | M

val entry_count : int
(** The default entry count: 16, as in the ratified spec. *)

val create : ?entries:int -> unit -> t
(** [entries] defaults to {!entry_count}. The ratified spec allows up
    to 64; larger values model generous future hardware — the Keystone
    platform needs roughly one deny entry per concurrently live
    enclave, so many-enclave stress runs size the PMP accordingly. *)

val count : t -> int
(** The number of entries this instance was created with. *)

val set_entry :
  t ->
  index:int ->
  lo:int ->
  hi:int ->
  r:bool ->
  w:bool ->
  x:bool ->
  locked:bool ->
  unit
(** Program entry [index] to cover physical addresses [lo, hi). A locked
    entry applies to M-mode too and cannot be reprogrammed. Raises
    [Invalid_argument] when reprogramming a locked entry. *)

val clear_entry : t -> index:int -> unit

val entry : t -> int -> (int * int * bool * bool * bool * bool) option
(** Entry [i] as [Some (lo, hi, r, w, x, locked)], or [None] while it
    is cleared. *)

val check : t -> privilege:privilege -> access:Trap.access -> paddr:int -> bool

val check_range :
  t -> privilege:privilege -> access:Trap.access -> lo:int -> hi:int -> bool
(** Every byte of [lo, hi) passes {!check}. Conservative per-entry
    implementation (no byte loop). *)
