(** One-call bring-up of the whole stack — machine, platform backend,
    secure boot, monitor, OS — shared by the examples, tests and
    benchmarks. *)

type backend = Sanctum_backend | Keystone_backend

type t = {
  platform : Sanctorum_platform.Platform.t;
  machine : Sanctorum_hw.Machine.t;
  sm : Sanctorum.Sm.t;
  os : Os.t;
  rng : Sanctorum_crypto.Drbg.t;  (** deterministic per [seed] *)
  seed : string;
      (** the seed this testbed was created with — print it on every
          failure so the run can be reproduced from the log line *)
}

val create :
  ?backend:backend ->
  ?cores:int ->
  ?mem_bytes:int ->
  ?l2:Sanctorum_hw.Cache.config ->
  ?pmp_entries:int ->
  ?seed:string ->
  ?sink:Sanctorum_telemetry.Sink.t ->
  unit ->
  t
(** Defaults: Sanctum backend, 4 cores, 16 MiB of memory, seed
    "testbed". The manufacturer root, device secret and DRBG are all
    derived from [seed], so runs are reproducible. [sink], when given,
    is attached to the monitor and machine before the OS model issues
    its first API call. *)

val backend_name : backend -> string

val install_signing_enclave : t -> (Os.installed, Sanctorum.Api_error.t) result
(** Load the canonical signing enclave (§VI-C); its measurement matches
    the constant the monitor was booted with. *)

val counting_image : evbase:int -> target:int -> Sanctorum.Image.t
(** A preemptible enclave: one code page at [evbase] and one data page
    after it. It counts the data page's first word up to [target], then
    exits. The count lives in memory, so it survives every AEX: re-entry
    restarts at the entry point and reloads it. *)

(** {2 Fault injection}

    Each helper breaks exactly one protection the monitor normally
    maintains, so the negative tests in [test/] can prove that the
    corresponding [Sanctorum_analysis] invariant actually fires. They
    bypass the API surface entirely — none of these states is
    reachable by software running on the machine. *)

val corrupt_owner_map : t -> rid:int -> unit
(** Hand memory unit [rid]'s hardware range to a domain the resource
    state machine has never heard of ([own.exclusive]). *)

val leak_lock : t -> eid:int -> unit
(** Take the enclave's metadata lock and never release it
    ([lock.quiescent], and [lock.leak] in traces). *)

val skip_flush : t -> eid:int -> unit
(** Simulate a missed shootdown: plant a TLB entry and an L1 line for
    an enclave-owned frame on core 0 in untrusted context
    ([tlb.no-stale], [cache.no-residue]). *)

val corrupt_page_table : t -> eid:int -> unit
(** Rewrite one of the enclave's leaf PTEs to reach monitor memory
    ([pt.confined]). *)

val alias_page_table : t -> eid:int -> unit
(** Point two enclave virtual pages at the same physical frame
    ([pt.no-alias]). Needs an enclave with at least two mapped pages. *)

val corrupt_core_domain : t -> core:int -> unit
(** Load a dead protection domain into a core's domain register
    ([core.domain]). *)
