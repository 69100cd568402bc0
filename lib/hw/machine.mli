(** The simulated multiprocessor: in-order cores, physical memory, a
    per-core L1, a shared L2/LLC, per-core TLB and PMP, timers, and a
    trap funnel.

    Every trap — API ecall, page fault, isolation violation, interrupt —
    lands in a single M-mode handler installed by the security monitor
    (paper Fig. 1). Isolation checks are delegated to hooks installed by
    the platform backend, mirroring how the monitor relies on the
    hardware isolation primitive (§IV-B). *)

type regfile
(** A core's registers x0..x31, x0 reading as zero. {!read_reg} and
    {!write_reg} are the way in, and {!save_regs} copies x1..x31 out
    whole. *)

type core = {
  id : int;
  regs : regfile;
  mutable pc : int64;
  mutable domain : Trap.domain;  (** protection domain now on this core *)
  mutable satp_root : int option;
      (** PPN of the active page-table root; [None] = bare (physical)
          addressing *)
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  mutable quarantined : bool;
      (** the core suffered a machine check or stopped acknowledging
          IPIs and was removed from service; a quarantined core is
          permanently halted and is skipped by shootdowns *)
  tlb : Tlb.t;
  l1 : Cache.t;
  pmp : Pmp.t;
  mutable timer_cmp : int option;
      (** deliver a timer interrupt when [cycles >= cmp] *)
  pending_interrupts : Trap.interrupt Queue.t;
      (** delivered FIFO by {!step}, one per step, after any due timer;
          {!post_interrupt} enqueues in O(1) *)
}

type fault_hooks = {
  tick : core:int -> cycles:int -> unit;
      (** called once per {!step}, before anything else — the
          fault-injection engine's clock *)
  irq_gate : core:int -> irq:Trap.interrupt -> bool;
      (** [false] drops the interrupt on the floor (it is consumed but
          not delivered) — a transient interrupt-controller fault *)
  drop_shootdown_ipi : target_core:int -> attempt:int -> bool;
      (** [true] loses this shootdown IPI; the protocol retries *)
}
(** Hooks installed by the fault-injection engine ([Sanctorum_faults]).
    With no hooks installed every site costs one option match. *)

type t

type config = {
  mem_bytes : int;
  cores : int;
  l2 : Cache.config;
  pmp_entries : int;
      (** PMP entries per core ({!Pmp.entry_count} by default). The
          Keystone platform needs roughly one deny entry per
          concurrently live enclave, so many-enclave runs raise this. *)
}

val default_config : config

val create : config -> t

val mem : t -> Phys_mem.t
val l2 : t -> Cache.t
val cores : t -> core array
val core : t -> int -> core
val core_count : t -> int

(** {2 Isolation hooks (installed by the platform backend)} *)

val set_phys_check :
  t -> (core:core -> access:Trap.access -> paddr:int -> bool) -> unit
(** Decide whether the domain executing on [core] may touch [paddr].
    Applied to every data/fetch access after translation. The answer
    must be a function of state that only monitor code changes — the
    core's domain, memory ownership — and must be the same for every
    address of a 4 KiB page, given the core and the access kind (both
    backends decide on page-aligned ranges); the check may refresh a
    per-core cache of that state (Keystone rewrites a core's PMP
    entries there). The superblock tier relies on both: no monitor code
    runs inside a block, so the answers it got stand until the block
    exits, and a block never leaves its page, so the entry's check
    covers every fetch of the block, and a load or store is checked
    only when its page or access kind differs from the block's previous
    data access. A guard that declines hands the access to {!step},
    which evaluates the check a second time and answers as the first
    call did. The check, and the state it reads, may change freely
    between blocks: nothing needs to be reported to the machine. *)

val set_pte_fetch_check : t -> (core:core -> paddr:int -> bool) -> unit
(** The Sanctum page-walk invariant: approve each PTE fetch address. *)

val set_dma_check : t -> (paddr:int -> len:int -> bool) -> unit

val set_trap_handler : t -> (t -> core -> Trap.cause -> unit) -> unit
(** The M-mode software: the security monitor. The handler mutates core
    state (pc, registers, domain, satp) and returns; execution resumes
    at [core.pc] unless the handler halted the core. *)

(** {2 Faults, quarantine and shootdown} *)

val set_fault_hooks : t -> fault_hooks option -> unit
(** Install (or with [None] remove) the fault-injection hooks. *)

val quarantine : t -> core:int -> reason:string -> unit
(** Remove a core from service: permanently halt it, cancel its timer
    and pending interrupts, emit [Core_quarantined], and invoke the
    quarantine handler (if set) so the monitor can reclaim whatever
    was running there. Idempotent. *)

val set_quarantine_handler : t -> (t -> core -> reason:string -> unit) -> unit
(** Called exactly once per quarantined core, after the core is
    halted. Installed by the monitor. *)

val shootdown_max_attempts : int
(** IPI delivery attempts per target core before it is presumed dead
    (3). *)

val tlb_shootdown : t -> reason:string -> unit
(** Flush every live core's TLB and private cache via IPIs with
    acknowledgment timeouts: an IPI lost to fault injection is retried
    up to {!shootdown_max_attempts} times, then the unresponsive core
    is {!quarantine}d — stale state on a core that never runs again
    cannot leak, so the shootdown fails closed. Emits one [Tlb_flush]
    event with [reason]. *)

val raise_machine_check : t -> core:int -> paddr:int -> unit
(** Deliver a machine-check trap on [core] (no-op if it is already
    halted or quarantined). Used by the fault engine for the
    core-death fault class; ECC-detected double-bit errors take the
    same trap path from inside the access functions. *)

(** {2 Telemetry} *)

val set_sink : t -> Sanctorum_telemetry.Sink.t -> unit
(** Attach a telemetry sink. Trap deliveries and DMA transfers become
    events. From here on the [hw.*] counters ([hw.cache.*],
    [hw.tlb.*], [hw.ptw.steps], [hw.instret], [hw.ecc.*], [hw.sb.*])
    count into the sink's metrics registry when it carries one, else
    into the machine's own ({!metrics}); their handles are resolved
    here, never on the hot paths. Each delivered trap counts in the
    sink's registry, when it carries one, under
    [hw.traps.<]{!Trap.cause_label}[>], a handle resolved at the
    cause's first delivery under this sink. With the default
    {!Sanctorum_telemetry.Sink.null} every event site is a single
    test. *)

val sink : t -> Sanctorum_telemetry.Sink.t

val metrics : t -> Sanctorum_telemetry.Metrics.t
(** The registry the [hw.*] counters count into: the attached sink's
    when it carries one, else the machine's own, created with it. The
    counters are the machine's only count of TLB, cache, page-walk and
    retire events; no registry is shared between machines unless their
    sinks share one. *)

val now : t -> int
(** Machine-wide timestamp for host-context events: the maximum cycle
    count over all cores. *)

(** {2 Execution} *)

val set_fast_path : t -> bool -> unit
(** Enable (default) or disable the superblock tier {!run} uses:
    straight-line runs, loads and stores included, pre-translated into
    per-physical-page arrays of pre-bound closures, each slot compiled
    from memory on its first execution. A block's entry tests what only
    code outside a block can move — {!run} enters none with fault hooks
    armed or an interrupt pending, and none starts with an ECC fault
    pending — and translates its own PC (alignment, range, a TLB hit
    or a page walk, execute and user permission, bounds, the isolation
    check), which covers every fetch of the block. A compiled page is
    reused while its frame's {!Phys_mem.generation} stands, so any
    write to the frame between blocks (a store from any core, DMA,
    zeroing, a bit flip), with the tier on or off, makes the next entry
    compile it afresh, and a store into the running block's own frame
    ends the block. A load or store checks only its own address (range,
    page crossing, bounds), and translates and checks isolation afresh
    only when its page or access kind differs from the block's previous
    data access; one that would trap or split across a page boundary
    side-exits to {!step} before a byte moves, with architectural state
    bit-identical to never having entered the block. A TLB miss, at the
    entry or at a load or store, is refilled inside the block as
    {!step} refills it: the walk in the guard, the insert and the
    walk's cycles in the instruction's commit; an entry's refill is
    undone when its first instruction side-exits, and a refill that
    evicts the code page's entry ends the block. An ecall or ebreak
    ends its block, which then delivers the trap and retires the
    instruction as {!step} does. An armed timer is a deadline: a block
    stops at the first instruction boundary the timer is due at, and
    {!step} delivers it there. Architectural state — cycles, instret,
    registers, traps — and telemetry, every [hw.*] counter included,
    are bit-identical in both modes (only the host-side [hw.sb.*]
    diagnostic counters differ): the tier defers only cycles, instret
    and its TLB counts, which it applies at block exit, and the L1 hits
    on its two open lines, that of its last fetch and that of its last
    data access, which it applies at its next other L1 access or at
    block exit, and counts everything else where it happens. Only host
    wall-clock differs. {!step} is the same stepped reference pipeline
    either way, so [off] runs it alone: the differential-testing
    baseline ([bench sim] measures the gap, the qcheck properties prove
    the equivalence). *)

val step : t -> core -> unit
(** Execute one instruction (or deliver one pending trap/interrupt)
    through the stepped reference pipeline: the same code with the
    fast path on or off. *)

val run : t -> core:int -> fuel:int -> int
(** [run t ~core ~fuel] executes until the core halts or [fuel]
    instructions have retired; returns instructions retired. Each trap
    delivery also consumes one unit of fuel. With the fast path on and
    no fault hooks or pending interrupts, each iteration first offers
    the PC to the superblock tier, an armed timer included; whatever
    the tier declines — a fetch trap at the entry, an instruction that
    would trap, a due timer, every interrupt delivery — goes through
    {!step}. [~fuel:1] makes every instruction its own block entry. *)

val post_interrupt : t -> core:int -> Trap.interrupt -> unit
(** Queue an external interrupt for [core]. Dropped silently if the
    core is quarantined — a fenced core is off the interconnect. *)

(** {2 Register and memory helpers} *)

val read_reg : core -> int -> int64
(** [read_reg core r] is register [r], numbered by its low 5 bits as an
    instruction field holds it. *)

val write_reg : core -> int -> int64 -> unit
(** [write_reg core r v] sets register [r] (its low 5 bits) to [v]; a
    write to x0 is dropped. *)

val save_regs : core -> Bytes.t -> unit
(** [save_regs core img] writes x1..x31 into [img]'s first 248 bytes, 8
    little-endian bytes each: the register part of the monitor's AEX
    image. *)

val reset_core_state : core -> unit
(** Zero the architected register file and PC — part of the monitor's
    core cleaning on re-allocation. Does not touch caches or TLB. *)

val translate :
  t ->
  core ->
  access:Trap.access ->
  vaddr:int64 ->
  (int, Trap.exception_cause) result
(** Translate without performing an access (no cache side effects;
    page-walk cycle costs still accrue on the core). *)

val dma_write : t -> paddr:int -> string -> (unit, Trap.exception_cause) result
(** A device-initiated write, subject to the DMA check (§IV-B1). *)

val dma_read :
  t -> paddr:int -> len:int -> (string, Trap.exception_cause) result
