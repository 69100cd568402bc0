module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry

type t = {
  name : string;
  machine : Hw.Machine.t;
  alloc_unit : int;
  llc_partitioned : bool;
  assign_range : lo:int -> hi:int -> Hw.Trap.domain -> (unit, string) result;
  owner_at : paddr:int -> Hw.Trap.domain;
  owner_version : unit -> int;
  clean_range : lo:int -> hi:int -> unit;
  enter_domain : core:Hw.Machine.core -> Hw.Trap.domain -> unit;
  ranges_of_domain : Hw.Trap.domain -> (int * int) list;
}

let sm_memory_bytes = 512 * 1024

let owner_map machine =
  let owners =
    Owner_map.create (Hw.Machine.mem machine) ~initial_owner:Hw.Trap.domain_untrusted
  in
  Owner_map.set_range owners ~lo:0 ~hi:sm_memory_bytes Hw.Trap.domain_sm;
  owners

let make ~name ~alloc_unit ~llc_partitioned ~phys_check ~pte_fetch_check machine
    owners =
  let mem = Hw.Machine.mem machine in
  let mem_bytes = Hw.Phys_mem.size mem in
  let page = Hw.Phys_mem.page_size in
  (* A device reaches only whole pages the OS owns. *)
  let dma_check ~paddr ~len =
    len >= 0
    && paddr >= 0
    && paddr + len <= mem_bytes
    && Owner_map.range_owned_by owners
         ~lo:(Sanctorum_util.Bits.align_down paddr page)
         ~hi:(Sanctorum_util.Bits.align_up (paddr + max len 1) page)
         Hw.Trap.domain_untrusted
  in
  Hw.Machine.set_phys_check machine phys_check;
  Hw.Machine.set_pte_fetch_check machine pte_fetch_check;
  Hw.Machine.set_dma_check machine dma_check;
  let assign_range ~lo ~hi domain =
    if lo mod alloc_unit <> 0 || hi mod alloc_unit <> 0 || lo >= hi then
      Error (name ^ ": grants are whole allocation units")
    else if hi > mem_bytes then Error (name ^ ": range beyond physical memory")
    else begin
      let version = Owner_map.version owners in
      Owner_map.set_range owners ~lo ~hi domain;
      (* Cores currently inside a domain see a new ownership at once:
         every check reads the owner map, directly or through the
         primitive it keeps in step with the map. *)
      if Owner_map.version owners <> version then
        Hw.Machine.note_protection_change machine;
      Ok ()
    end
  in
  (* Region re-allocation requires a TLB shootdown on every core, and
     no cache may keep lines of the reassigned range. [flush_range]
     follows the backend's index function (Sanctum's page colouring). *)
  let l2 = Hw.Machine.l2 machine in
  let clean_range ~lo ~hi =
    Hw.Phys_mem.zero_range mem ~pos:lo ~len:(hi - lo);
    Hw.Cache.flush_range l2 ~lo ~hi;
    Hw.Machine.tlb_shootdown machine ~reason:"region-clean-shootdown"
  in
  (* Cores are time-multiplexed: all per-core microarchitectural state
     is flushed at each re-allocation (§IV-B2). *)
  let enter_domain ~(core : Hw.Machine.core) domain =
    Hw.Cache.flush_all core.Hw.Machine.l1;
    Hw.Tlb.flush core.Hw.Machine.tlb;
    core.Hw.Machine.domain <- domain;
    Hw.Machine.note_protection_change machine;
    let sink = Hw.Machine.sink machine in
    if Tel.Sink.enabled sink then begin
      let id = core.Hw.Machine.id and cycles = core.Hw.Machine.cycles in
      Tel.Sink.emit sink ~core:id ~cycles
        (Tel.Event.Tlb_flush { reason = "domain-switch" });
      Tel.Sink.emit sink ~core:id ~cycles (Tel.Event.Domain_switch { domain })
    end
  in
  {
    name;
    machine;
    alloc_unit;
    llc_partitioned;
    assign_range;
    owner_at = (fun ~paddr -> Owner_map.owner_at owners ~paddr);
    owner_version = (fun () -> Owner_map.version owners);
    clean_range;
    enter_domain;
    ranges_of_domain = Owner_map.domain_ranges owners;
  }
