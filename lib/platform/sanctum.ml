module Hw = Sanctorum_hw

(* 64 DRAM regions, as in the paper (§VII-A). *)
let region_count = 64

let create machine =
  let mem_bytes = Hw.Phys_mem.size (Hw.Machine.mem machine) in
  let region_bytes = mem_bytes / region_count in
  if
    region_bytes * region_count <> mem_bytes
    || region_bytes mod Hw.Phys_mem.page_size <> 0
  then
    invalid_arg "Sanctum.create: memory does not split into aligned regions";
  let owners = Platform.owner_map machine in
  (* LLC partitioning: region index bits select a disjoint group of
     cache sets (page coloring), so no two regions ever contend. *)
  let l2 = Hw.Machine.l2 machine in
  let l2_cfg = Hw.Cache.config l2 in
  let sets_per_region = max 1 (l2_cfg.Hw.Cache.sets / region_count) in
  let color_index paddr =
    let region = paddr / region_bytes mod region_count in
    let line = paddr / l2_cfg.Hw.Cache.line_bytes in
    ((region * sets_per_region) + (line mod sets_per_region))
    land (l2_cfg.Hw.Cache.sets - 1)
  in
  Hw.Cache.set_index_fn l2 color_index;
  (* A domain reaches its own memory and memory the OS left shared
     (untrusted-owned). Cross-domain accesses fault in hardware. *)
  let phys_check ~(core : Hw.Machine.core) ~access:_ ~paddr =
    let owner = Owner_map.owner_at owners ~paddr in
    owner = core.Hw.Machine.domain || owner = Hw.Trap.domain_untrusted
  in
  (* Private page walks: every PTE fetch must target memory owned by
     the walking domain itself (the Sanctum page-walk invariant). *)
  let pte_fetch_check ~(core : Hw.Machine.core) ~paddr =
    Owner_map.owner_at owners ~paddr = core.Hw.Machine.domain
  in
  (* DRAM regions are enforced by the owner map itself: nothing to
     program on a domain switch. *)
  Platform.make ~name:"sanctum" ~alloc_unit:region_bytes ~llc_partitioned:true
    ~phys_check ~pte_fetch_check
    ~program:(fun _ _ -> ())
    machine owners
