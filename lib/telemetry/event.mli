(** Typed trace events.

    One event records one observable action of the simulated stack: a
    trap entering or leaving the monitor's funnel, an SM API decision,
    an enclave lifecycle step, a resource transfer, a TLB shootdown, a
    mailbox operation, or a DMA transfer. Events are timestamped with
    the simulated cycle counter of the core they happened on ([core]
    is [-1] for host-context actions that run outside any simulated
    core, e.g. API calls issued natively by the OS model). *)

type api_outcome =
  | Accepted
  | Rejected of string  (** rendered {!Sanctorum.Api_error.t} *)

(** Who a monitor call or message acts for: the untrusted OS or the
    enclave with this eid. *)
type principal = Os | Enclave of int

(** One of the monitor's fine-grained locks (§V-A): the resource lock,
    an enclave's metadata lock (by eid) or a thread's (by tid). *)
type lock = Resource_lock | Enclave_lock of int | Thread_lock of int

val principal_name : principal -> string
(** ["os"] or ["enclave:0x<eid>"], as the exporters and the audit log
    print it. *)

val lock_name : lock -> string
(** ["resource"], ["enclave:0x<eid>"] or ["thread:0x<tid>"]. *)

type payload =
  | Trap_enter of { cause : string }
      (** control entered the M-mode trap funnel *)
  | Trap_exit of { cause : string }  (** the trap handler returned *)
  | Sm_api of {
      api : string;
      caller : principal;
      outcome : api_outcome;
      latency : int;  (** simulated cycles spent inside the call *)
    }
  | Enclave_created of { eid : int }
  | Enclave_initialized of { eid : int }
      (** [init_enclave] sealed the measurement; the enclave is runnable *)
  | Enclave_entered of { eid : int; tid : int; target_core : int }
  | Enclave_exited of { eid : int; aex : bool }
      (** [aex] is true for an asynchronous exit, false for a
          voluntary [exit_enclave] *)
  | Enclave_destroyed of { eid : int }
  | Region_granted of { kind : string; rid : int; owner : principal }
  | Region_freed of { kind : string; rid : int }
  | Domain_switch of { domain : int }
  | Tlb_flush of { reason : string }
  | Mailbox_sent of { sender : principal; recipient : int }
  | Mailbox_received of { recipient : int; sender : principal }
  | Dma_transfer of { write : bool; paddr : int; len : int; granted : bool }
  | Lock_acquired of { lock : lock }
      (** one of the monitor's fine-grained locks (§V-A) was taken *)
  | Lock_released of { lock : lock }
  | Guarded_write of { lock : lock; field : string }
      (** a lock-guarded monitor field was mutated; consumed by the
          lock-discipline analyzer in [Sanctorum_analysis] *)
  | Fault_injected of { fault : string; detail : string }
      (** the fault-injection engine fired a scheduled fault;
          [fault] is the class label (e.g. ["bitflip"], ["mce"]) *)
  | Ecc_corrected of { paddr : int }
      (** the ECC model corrected a single-bit error on an
          architectural access to [paddr] *)
  | Machine_check of { paddr : int }
      (** an uncorrectable (double-bit) error or injected core
          failure raised a machine-check at [paddr] ([-1] when the
          check is not tied to a memory address) *)
  | Core_quarantined of { core : int; reason : string }
      (** the SM (or the shootdown protocol) removed [core] from
          service; [reason] is ["machine-check"] or
          ["shootdown-timeout"] *)
  | Shootdown_retry of { target_core : int; attempt : int }
      (** a TLB-shootdown IPI to [target_core] was not acknowledged
          and is being retried ([attempt] starts at 1) *)

type t = {
  seq : int;  (** global emission order, assigned by the sink *)
  core : int;  (** originating core id, [-1] = host/monitor context *)
  cycles : int;  (** simulated-cycle timestamp *)
  payload : payload;
}

val label : payload -> string
(** Short stable name, e.g. ["trap:ecall"], ["sm:create_enclave"],
    ["enclave:exit"]. The prefix before [':'] is the category. *)

val category : payload -> string

val phase : payload -> [ `Begin | `End | `Complete of int | `Instant ]
(** Chrome-trace phase: trap enter/exit bracket a duration, SM API
    calls are complete events carrying their latency, everything else
    is instant. *)

val args : payload -> (string * string) list
(** Structured key/value detail for exporters. *)
