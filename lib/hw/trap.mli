(** Trap causes and protection-domain identifiers.

    A trap is the only mechanism by which control reaches the security
    monitor (paper Fig. 1: "SM API via system exceptions"). *)

type access = Read | Write | Execute

type exception_cause =
  | Illegal_instruction of int32
  | Instruction_address_misaligned of int64
      (** a fetch from a PC that is not 4-byte aligned (JALR clears only
          bit 0 of the target, so bit 1 can survive into the PC) *)
  | Misaligned of access * int64  (** access kind and faulting address *)
  | Access_fault of access * int64
      (** physical isolation violation (PMP / DRAM-region check) *)
  | Page_fault of access * int64  (** translation failure *)
  | Ecall_user  (** environment call from U-mode: an SM API call *)
  | Breakpoint
  | Machine_check of int
      (** uncorrectable hardware error (e.g. a double-bit ECC fault);
          the payload is the faulting physical address, or [-1] when
          the failure is not tied to a memory access (a dying core) *)

type interrupt =
  | Timer  (** the OS's preemption tick *)
  | Software
  | External of int  (** device interrupts, identified by IRQ number *)

type cause = Exception of exception_cause | Interrupt of interrupt

type domain = int
(** A protection domain identifier. By convention (mirrored by the
    monitor layer): 0 is the SM itself, 1 is the untrusted OS and all
    user applications, and values >= 2 are individual enclaves. *)

val domain_sm : domain
val domain_untrusted : domain

val cause_label : cause -> string
(** A short stable slug for a cause, without faulting addresses —
    e.g. ["page-fault-read"], ["ecall"], ["irq-timer"]. Suitable as a
    trace-event name or metric-name suffix. *)

val cause_index : cause -> int
(** The cause's label as an index in [[0, cause_count)]: two causes
    share an index exactly when they share a {!cause_label}. *)

val cause_count : int

val pp_cause : Format.formatter -> cause -> unit
