(** The Sanctorum security monitor (paper §V).

    One [t] is the trusted software of one machine. It owns the bottom
    of physical memory, interposes on every trap (Fig. 1), verifies the
    untrusted OS's resource-management decisions against the security
    state machine (Figs. 2–5), measures enclaves (§VI-A), and brokers
    attestation (§VI-B/C).

    The monitor is {e not} a kernel: every function here only checks and
    executes a decision made by system software; it never chooses which
    resource to hand to whom.

    Modeling note (see DESIGN.md): the paper's monitor is bare-metal
    M-mode C. Here the monitor runs natively and manipulates the
    simulated machine, installed as the machine's M-mode trap handler;
    callers are authenticated by the protection domain executing on the
    calling core for the ecall path, and by the [caller] argument for
    the native path (the harness stands in for scheduled software). *)

type t

type caller = Os | Enclave_caller of int  (** eid *)

type resource_target = To_os | To_enclave of int

type field =
  | Field_public_key  (** the monitor's attestation public key *)
  | Field_certificates  (** serialized certificate chain, root first *)
  | Field_sm_measurement
  | Field_signing_measurement  (** expected measurement of the signing enclave *)

(** {2 Boot} *)

val binary_image : string
(** The canonical monitor binary this model stands in for; measured by
    secure boot. *)

val boot :
  platform:Sanctorum_platform.Platform.t ->
  identity:Boot.identity ->
  signing_enclave_measurement:string ->
  t
(** Install the monitor on a platform: claims the monitor's memory,
    builds resource metadata, hooks the machine's trap funnel. *)

val platform : t -> Sanctorum_platform.Platform.t
val machine : t -> Sanctorum_hw.Machine.t
val identity : t -> Boot.identity

val set_os_trap_handler :
  t -> (Sanctorum_hw.Machine.core -> Sanctorum_hw.Trap.cause -> unit) -> unit
(** Where the monitor delegates events that belong to the OS (Fig. 1);
    always called {e after} any required AEX has cleaned the core. *)

(** {2 Telemetry} *)

val set_sink : t -> Sanctorum_telemetry.Sink.t -> unit
(** Attach a telemetry sink to the monitor {e and} its machine. Every
    API entry point then emits one [Sm_api] event per call — accepted
    or rejected with the rendered error — plus per-API call/reject
    counters ([sm.api.*]) and an [sm.api.latency] histogram; enclave
    lifecycle transitions, region grants/frees and mailbox traffic
    become events of their own. The default sink is
    {!Sanctorum_telemetry.Sink.null}, under which no event is built:
    each instrumentation site is one boolean test, and an API call
    passes several, among them its entry and each lock take, lock
    release and guarded write. *)

val sink : t -> Sanctorum_telemetry.Sink.t

val set_post_api_hook : t -> (api:string -> unit) option -> unit
(** Install (or clear) a callback invoked after {e every} public API
    call returns, whether the sink is enabled or not. Used by
    [Sanctorum_analysis] to run the invariant checker after each call
    ([--check-invariants]). The hook must only use the read-only
    introspection accessors below — calling API entry points from the
    hook would recurse. *)

val mailbox_stats : t -> eid:int -> (int * int * int) Api_error.result
(** [(deposited, retrieved, rejected)] for the enclave's mailbox set. *)

(** {2 Generic resources (Fig. 2)} *)

val memory_units : t -> int
val memory_unit_bytes : t -> int

val block_resource :
  t -> caller:caller -> Resource.kind -> rid:int -> unit Api_error.result

val clean_resource :
  t -> caller:caller -> Resource.kind -> rid:int -> unit Api_error.result

val grant_resource :
  t ->
  caller:caller ->
  Resource.kind ->
  rid:int ->
  to_:resource_target ->
  unit Api_error.result

val accept_resource :
  t -> caller:caller -> Resource.kind -> rid:int -> unit Api_error.result

val resource_state :
  t -> Resource.kind -> rid:int -> Resource.state Api_error.result

val resource_version : t -> int
(** {!Resource.version} of the monitor's resource table: it moves with
    every state write, so equal values mean {!resource_state} answers
    as it did. *)

(** {2 Enclave lifecycle (Fig. 3)} *)

val metadata_base : t -> int
(** First physical address usable for enclave/thread metadata. The OS
    picks concrete addresses inside the metadata area; the monitor
    enforces safety (§V-B). *)

val metadata_limit : t -> int
val enclave_slot_bytes : int
val thread_slot_bytes : int

val create_enclave :
  t ->
  caller:caller ->
  eid:int ->
  evbase:int ->
  evsize:int ->
  ?mailbox_slots:int ->
  unit ->
  unit Api_error.result

val allocate_page_table :
  t -> caller:caller -> eid:int -> vaddr:int -> level:int -> unit Api_error.result
(** Reserve the next physical page of the enclave for the page-table
    node covering [vaddr] at [level] (2 = root). Tables must precede
    data (§VI-A). *)

val load_page :
  t ->
  caller:caller ->
  eid:int ->
  vaddr:int ->
  src_paddr:int ->
  r:bool ->
  w:bool ->
  x:bool ->
  unit Api_error.result
(** Copy one page from untrusted memory into the enclave's next
    physical page and map it at [vaddr] (which must lie in evrange).
    Extends the measurement with the contents and virtual layout. *)

val map_shared :
  t ->
  caller:caller ->
  eid:int ->
  vaddr:int ->
  src_paddr:int ->
  len:int ->
  unit Api_error.result
(** Map a window of untrusted memory (outside evrange) into the
    enclave's address space for OS communication; measured by geometry
    only. *)

val load_thread :
  t ->
  caller:caller ->
  eid:int ->
  tid:int ->
  entry_pc:int64 ->
  entry_sp:int64 ->
  unit Api_error.result

val init_enclave : t -> caller:caller -> eid:int -> unit Api_error.result
(** Seal: finalize the measurement; threads become schedulable. *)

val delete_enclave : t -> caller:caller -> eid:int -> unit Api_error.result
(** Destroy the enclave and block all its resources; they must be
    cleaned before re-allocation. Fails while any thread runs. *)

val enclave_measurement : t -> eid:int -> string Api_error.result
val enclave_domain : t -> eid:int -> Sanctorum_hw.Trap.domain Api_error.result
val enclaves : t -> int list

(** {2 Threads (Fig. 4)} *)

val assign_thread :
  t -> caller:caller -> eid:int -> tid:int -> unit Api_error.result
(** OS offers an available thread to an enclave. *)

(** [accept_thread] lets the accepting enclave re-point the recycled
    thread's entry state; omitted values keep the (cleaned) defaults of
    zero. *)
val accept_thread :
  t ->
  caller:caller ->
  tid:int ->
  ?entry_pc:int64 ->
  ?entry_sp:int64 ->
  unit ->
  unit Api_error.result
val release_thread : t -> caller:caller -> tid:int -> unit Api_error.result
val unassign_thread : t -> caller:caller -> tid:int -> unit Api_error.result
val delete_thread : t -> caller:caller -> tid:int -> unit Api_error.result

(** {2 Enclave execution} *)

val enter_enclave :
  t -> caller:caller -> eid:int -> tid:int -> core:int -> unit Api_error.result
(** Schedule the thread onto the core: switches protection domain,
    installs the enclave page table and entry state. The core then runs
    until [exit_enclave] or an AEX. a0 is 1 when an AEX state dump is
    pending, else 0. *)

val exit_enclave : t -> caller:caller -> core:int -> unit Api_error.result
(** Voluntary exit: cleans the core and returns it to the OS. *)

val set_fault_handler :
  t -> caller:caller -> handler:int64 -> unit Api_error.result
(** An initialized enclave registers a virtual address to receive its
    own faults (paging etc., §V-A). *)

val read_aex_state : t -> caller:caller -> tid:int -> string Api_error.result
(** The owning enclave reads (and clears) a pending AEX dump from the
    thread's metadata to resume the interrupted computation (§V-C).
    Layout: x1..x31 then the interrupted pc, 32 little-endian 64-bit
    words. *)

(** {2 Fault recovery} *)

val patrol_scrub : t -> int * int
(** Background ECC patrol: walk all of physical memory through the
    scrubber, correcting single-bit faults before a second hit in the
    same word makes them uncorrectable. An uncorrectable word found
    here is retired in place — its owning enclave is emergency-reclaimed
    and the word zeroed — {e without} quarantining a core: nothing was
    executing through the bad word, so unlike the machine-check trap
    path there is no poisoned architectural state. Returns
    [(corrected, retired)] word counts. Idempotent when memory is
    clean, and O(1) in that case. *)

(** {2 Mailboxes (Fig. 5)} *)

val accept_mail :
  t -> caller:caller -> sender:Mailbox.sender -> unit Api_error.result

val send_mail :
  t -> caller:caller -> recipient:int -> msg:string -> unit Api_error.result

val get_mail :
  t -> caller:caller -> sender:Mailbox.sender -> (string * string) Api_error.result
(** [(message, sender_measurement)]. *)

(** {2 Attestation support (§VI)} *)

val get_field : t -> field -> string

val get_signing_key :
  t -> caller:caller -> Sanctorum_crypto.Schnorr.secret_key Api_error.result
(** Released only to the enclave whose measurement equals the hard-coded
    signing-enclave measurement (§VI-C). *)

(** {2 Read-only introspection}

    Snapshot views of the monitor's internal metadata for external
    checkers ([Sanctorum_analysis]) and debugging tools. None of these
    take locks, emit telemetry, or mutate state. *)

type enclave_info = {
  i_eid : int;
  i_domain : Sanctorum_hw.Trap.domain;
  i_evbase : int;
  i_evsize : int;
  i_initialized : bool;
  i_has_measurement : bool;
  i_measuring : bool;  (** a measurement context is still open *)
  i_root_ppn : int option;
  i_free_pages : int list;
  i_locked : bool;
}

type thread_info = {
  i_tid : int;
  i_owner : int option;
  i_offered : int option;
  i_phase : [ `Available | `Assigned | `Running of int ];
  i_has_aex : bool;
  i_thread_locked : bool;
}

val enclave_info : t -> eid:int -> enclave_info option

val enclave_mappings : t -> eid:int -> (int * int) list
(** The enclave's [(vpn, ppn)] mappings, sorted by vpn; [[]] if no such
    enclave. *)

val enclave_threads : t -> eid:int -> int list
(** The enclave's thread ids, ascending; [[]] if no such enclave. *)

val thread_ids : t -> int list
val thread_info : t -> tid:int -> thread_info option

val mailbox_snapshot : t -> eid:int -> (Mailbox.sender * bool) list option
(** The enclave's semantic mailbox state ({!Mailbox.snapshot}):
    accepted [(sender, full)] pairs in slot order, without the
    cumulative counters of {!mailbox_stats}. [None] if no such
    enclave. *)

val metadata_slots : t -> (int * int) list
(** Claimed metadata slots as sorted [(addr, len)] pairs; all must lie
    inside [[metadata_base, metadata_limit)] and never overlap. *)

val held_locks : t -> string list
(** Names of every fine-grained lock currently held (should be empty
    between API calls): ["resource"], ["enclave:0x<eid>"],
    ["thread:0x<tid>"]. *)

(** {2 Test and experiment hooks} *)

val try_lock_enclave : t -> eid:int -> bool
(** Grab an enclave's fine-grained metadata lock, as a concurrent API
    call would; lets tests exercise transaction aborts. *)

val unlock_enclave : t -> eid:int -> unit

val corrupt_enclave_lifecycle : t -> eid:int -> unit
(** Fault injection (tests only): flip the enclave's lifecycle state
    without performing the transition's work, so the analysis layer's
    [enclave.lifecycle] invariant fires. *)

val corrupt_thread_phase : t -> tid:int -> core:int -> unit
(** Fault injection (tests only): mark a thread running on [core]
    without entering the enclave ([thread.lifecycle]). *)

val corrupt_metadata_slot : t -> unit
(** Fault injection (tests only): claim a metadata slot outside the
    monitor's metadata window ([meta.slots]). *)

val corrupt_resource_owner : t -> rid:int -> Sanctorum_hw.Trap.domain -> unit
(** Fault injection (tests only): rewrite a memory unit's Fig. 2 state
    to [Owned domain] without telling the hardware ([own.exclusive],
    [own.sm-reserved]). *)

(** {2 The ecall ABI (Fig. 1: API call via system exceptions)}

    Enclave code running on the machine invokes the monitor with
    [ecall]; a7 selects the call, a0..a2 carry arguments, and a0
    returns 0 on success or a positive {!Api_error.t} code. *)

module Ecall : sig
  val exit_enclave : int

  (** [accept_mail]: a0 = sender eid, 0 for the OS. *)
  val accept_mail : int

  (** [send_mail]: a0 = recipient eid, a1 = message vaddr. *)
  val send_mail : int

  (** [get_mail]: a0 = sender eid (0 = OS), a1 = out message vaddr,
      a2 = out measurement vaddr. *)
  val get_mail : int

  (** [block_resource]: a0 = kind (0 core, 1 memory), a1 = rid. *)
  val block_resource : int

  val accept_resource : int

  (** [accept_thread]: a0 = tid. *)
  val accept_thread : int

  val release_thread : int

  (** [set_fault_handler]: a0 = handler vaddr. *)
  val set_fault_handler : int

  (** [read_aex_state]: a0 = tid (0 = the calling thread), a1 = output
      buffer vaddr (256 bytes: x1..x31 then the interrupted pc). *)
  val read_aex_state : int
end
