(** The isolation-primitive interface the security monitor programs
    against (paper §IV-B, §VII). The monitor never touches DRAM regions
    or PMP entries directly: it requests domain assignments, cleaning,
    and core switches through this interface, and the backend maps them
    to its hardware primitive. *)

type t = {
  name : string;
  machine : Sanctorum_hw.Machine.t;
  alloc_unit : int;
      (** granularity (bytes) at which memory changes owner: one DRAM
          region on Sanctum, one page on Keystone *)
  llc_partitioned : bool;
      (** whether the LLC is isolated across domains (§VII-A vs
          §VII-B: Keystone does not partition microarchitectural
          state) *)
  assign_range :
    lo:int -> hi:int -> Sanctorum_hw.Trap.domain -> (unit, string) result;
      (** give [lo, hi) to a domain; fails if misaligned for the
          backend's granularity or out of hardware resources *)
  owner_at : paddr:int -> Sanctorum_hw.Trap.domain;
  owner_version : unit -> int;
      (** the owner map's {!Owner_map.version}: it moves exactly when
          some page changes owner, so equal values mean [owner_at]
          answers as it did *)
  clean_range : lo:int -> hi:int -> unit;
      (** zero the memory and scrub cache state so no residue crosses a
          re-allocation (Fig. 2 [clean]) *)
  enter_domain : core:Sanctorum_hw.Machine.core -> Sanctorum_hw.Trap.domain -> unit;
      (** retarget a core to a protection domain: flushes
          time-multiplexed core state (L1, TLB) and sets the core's
          domain register, which the isolation checks read *)
  ranges_of_domain : Sanctorum_hw.Trap.domain -> (int * int) list;
  iter_ranges :
    (lo:int -> hi:int -> domain:Sanctorum_hw.Trap.domain -> unit) -> unit;
      (** {!Owner_map.iter_ranges}: [f] on each maximal same-owner
          range, in ascending address order, at O(ranges) cost *)
}

val sm_memory_bytes : int
(** Bytes at the bottom of physical memory reserved for the monitor's
    own image and metadata, on every backend. *)

val owner_map : Sanctorum_hw.Machine.t -> Owner_map.t
(** A fresh owner map of the machine's memory: the bottom
    {!sm_memory_bytes} belong to the monitor, the rest to the OS. *)

val make :
  name:string ->
  alloc_unit:int ->
  llc_partitioned:bool ->
  phys_check:
    (core:Sanctorum_hw.Machine.core ->
    access:Sanctorum_hw.Trap.access ->
    paddr:int ->
    bool) ->
  pte_fetch_check:(core:Sanctorum_hw.Machine.core -> paddr:int -> bool) ->
  Sanctorum_hw.Machine.t ->
  Owner_map.t ->
  t
(** The backend-independent core of both platforms over [owners] (from
    {!owner_map}): installs [phys_check], [pte_fetch_check] and a DMA
    check (devices reach only OS-owned pages) on the machine, and
    builds the record. [assign_range] accepts whole [alloc_unit]s;
    [clean_range] zeroes the range, flushes its L2 sets and shoots
    down every TLB; [enter_domain] flushes the core's L1 and TLB
    (§IV-B2) and sets its domain. Neither writes the backend's
    primitive nor tells the machine: both checks read the core's
    domain and [owners] when they run, and neither a grant nor a
    switch can happen inside a superblock, whose entry checks afresh
    ({!Sanctorum_hw.Machine.set_phys_check}). *)
