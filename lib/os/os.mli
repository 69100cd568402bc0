(** The untrusted operating system model.

    The OS makes every resource-management {e decision} — which metadata
    addresses, which memory units, which core, when to preempt — and the
    monitor merely verifies them. Nothing in this library is trusted;
    the isolation experiments drive deliberately malicious variants of
    it ({!Sanctorum_attack}). *)

type t

type run_outcome =
  | Exited  (** the enclave called exit_enclave *)
  | Preempted  (** a timer interrupt forced an AEX *)
  | Faulted of Sanctorum_hw.Trap.cause  (** AEX caused by an exception *)
  | Fuel_exhausted
  | Killed
      (** the core was quarantined mid-run (machine check or shootdown
          timeout): the computation is lost, nothing leaked *)

type installed = {
  eid : int;
  tids : int list;
  shared_paddrs : (int * int * int) list;
      (** (vaddr, paddr, len): where each shared window of the image
          landed in untrusted memory *)
}

val create : Sanctorum.Sm.t -> t
(** Boot the OS on a monitored machine. Installs the OS trap handler
    (receiving the monitor's delegated events) and builds the physical
    allocator over grantable memory. *)

val sm : t -> Sanctorum.Sm.t
val machine : t -> Sanctorum_hw.Machine.t

(** {2 Allocation decisions} *)

val alloc_metadata : t -> [ `Enclave | `Thread ] -> int
(** Pick a fresh metadata address for the monitor to validate. Raises
    [Out_of_memory] if the metadata region is exhausted. *)

val release_metadata : t -> [ `Enclave | `Thread ] -> int -> unit
(** Recycle a metadata address after the monitor released the slot. *)

val alloc_staging : t -> bytes:int -> int
(** Page-aligned scratch memory in the OS's own (never granted) heap,
    e.g. to stage enclave pages or share buffers with enclaves. Raises
    [Out_of_memory] if the heap is exhausted. *)

val alloc_units : t -> count:int -> int list
(** Reserve [count] grantable memory units, ascending and contiguous.
    Raises [Out_of_memory] if the pool is exhausted. *)

val free_units : t -> int list -> unit

val free_unit_count : t -> int
(** Grantable memory units currently free in the OS pool — the
    reclamation baseline: after every enclave is reclaimed, the count
    must return to its boot value. *)

val unit_bytes : t -> int

val os_write : t -> paddr:int -> string -> unit
(** A native store by OS code into memory it owns (asserts ownership —
    a real OS load/store to foreign memory faults in the machine, which
    the attack suite demonstrates at the ISA level). *)

val os_read : t -> paddr:int -> len:int -> string

(** {2 Enclave management} *)

val install_enclave : t -> Sanctorum.Image.t -> (installed, Sanctorum.Api_error.t) result
(** The full loading sequence of Fig. 3: create, grant memory, allocate
    page tables, load pages, map shared windows, load threads, init.
    Follows the canonical order of {!Sanctorum.Image.measurement}.
    Never raises on exhaustion: when the unit pool, the staging heap,
    the metadata region or the enclave's own pages run out, it returns
    [Error (Out_of_resources _)] after deleting the half-built enclave
    and returning its units, threads and metadata slot (as
    {!reclaim_enclave} does). Other monitor errors are returned as
    they come. *)

val reclaim_enclave : t -> eid:int -> unit Sanctorum.Api_error.result
(** delete_enclave followed by cleaning every blocked unit — the Fig. 2
    cycle back to [available] (and re-granting to the OS pool). *)

val run_enclave :
  t -> eid:int -> tid:int -> core:int -> fuel:int -> ?quantum:int -> unit ->
  (run_outcome, Sanctorum.Api_error.t) result
(** enter_enclave then run the core. [quantum] (cycles), when given,
    arms the OS preemption timer. *)

val resume_enclave :
  t -> eid:int -> tid:int -> core:int -> fuel:int -> ?quantum:int -> unit ->
  (run_outcome, Sanctorum.Api_error.t) result
(** Re-enter after an AEX (the enclave sees a0 = 1). *)

val continue_running :
  t -> tid:int -> core:int -> fuel:int -> ?quantum:int -> unit ->
  (run_outcome, Sanctorum.Api_error.t) result
(** Continue a thread that is still [Running] on [core] — the recovery
    path when a dropped timer interrupt let the fuel budget expire
    without an AEX. Re-arms [quantum] and resumes without re-entering. *)

val retry_transient :
  (unit -> 'a Sanctorum.Api_error.result) -> 'a Sanctorum.Api_error.result
(** Run a monitor transaction, retrying a bounded number of times on
    [Concurrent_call] (the only transient error class, §V-A). *)

(** {2 Fair multi-enclave scheduling}

    A round-robin run queue dispatching one quantum per live core per
    round. The scheduler owns only the {e decision} of who runs where;
    every entry still goes through the monitor's enter/resume checks. *)

module Scheduler : sig
  type sched

  type slot = {
    s_core : int;
    s_eid : int;
    s_tid : int;
    s_cycles : int;  (** simulated cycles this quantum consumed *)
    s_instret : int;  (** instructions retired this quantum *)
    s_outcome : (run_outcome, Sanctorum.Api_error.t) result;
  }

  val create : t -> cores:int list -> sched
  (** The cores this scheduler may dispatch on. Quarantined cores are
      skipped automatically at each round. *)

  val enqueue : sched -> eid:int -> tid:int -> unit
  (** Append a runnable thread to the tail of the run queue. *)

  val pending : sched -> int
  (** Jobs still queued or pinned to a core (excludes exited ones). *)

  val round : sched -> fuel:int -> quantum:int -> slot list
  (** One scheduler round: at most one quantum per non-quarantined
      core, in core order. Enter vs resume is chosen by whether the
      thread holds a pending AEX dump; a thread whose fuel ran dry
      while still [Running] (lost timer tick) is pinned to its core
      and continued there next round. [Exited], [Faulted] and
      [Killed] jobs leave the queue — re-[enqueue] to run them again.
      A job erroring 3 times in a row is dropped. *)

  val drain : sched -> fuel:int -> quantum:int -> bool
  (** Drive every pinned (still-Running) thread to an architectural
      stop so reclamation can proceed. [false] if some thread refused
      to stop within the internal budget. *)
end

(** {2 Untrusted programs}

    The OS can also run ordinary user programs in its own protection
    domain — the baseline the enclave experiments compare against. *)

val run_untrusted_program :
  t ->
  code:Sanctorum_hw.Isa.t list ->
  core:int ->
  fuel:int ->
  ?data_pages:int ->
  unit ->
  run_outcome * int64
(** Builds OS page tables in OS memory, runs the program at virtual
    0x400000, returns the outcome and the final a0 value. The program
    signals completion with [ecall] (an OS syscall). *)

val delegated_events : t -> Sanctorum_hw.Trap.cause list
(** Every event the monitor delegated to the OS, oldest first — what a
    (possibly malicious) OS gets to observe. *)

val clear_delegated_events : t -> unit
