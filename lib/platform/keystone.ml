module Hw = Sanctorum_hw

let create machine =
  let mem_bytes = Hw.Phys_mem.size (Hw.Machine.mem machine) in
  let owners = Platform.owner_map machine in
  (* Entry 0 on every core: the monitor's memory, locked, no access for
     any mode. The monitor model performs its own memory operations
     natively, standing in for M-mode execution. *)
  Array.iter
    (fun (c : Hw.Machine.core) ->
      Hw.Pmp.set_entry c.Hw.Machine.pmp ~index:0 ~lo:0
        ~hi:Platform.sm_memory_bytes ~r:false ~w:false ~x:false ~locked:true)
    (Hw.Machine.cores machine);
  let program_pmp (core : Hw.Machine.core) domain =
    let pmp = core.Hw.Machine.pmp in
    let background = Hw.Pmp.count pmp - 1 in
    let next = ref 1 in
    let overflow = ref false in
    let add ~lo ~hi ~allow =
      if !next < background then begin
        Hw.Pmp.set_entry pmp ~index:!next ~lo ~hi ~r:allow ~w:allow ~x:allow
          ~locked:false;
        incr next
      end
      else overflow := true
    in
    (* The owner map's range list partitions memory, so the incoming
       domain's allows, every other enclave's denies and the monitor's
       entry 0 never overlap: whatever order they take, each address
       matches at most one of them, and the decision is the same. The
       order only sets the cost of [Pmp.check], which stops at the
       first match — so the domain's own ranges, which nearly every
       fetch, load and store hits, go first. *)
    let denies = ref [] in
    Owner_map.iter_ranges owners (fun ~lo ~hi ~domain:d ->
        if d <> Hw.Trap.domain_sm && d <> Hw.Trap.domain_untrusted then
          if d = domain then add ~lo ~hi ~allow:true
          else denies := (lo, hi) :: !denies);
    List.iter (fun (lo, hi) -> add ~lo ~hi ~allow:false) (List.rev !denies);
    for i = !next to background - 1 do
      Hw.Pmp.clear_entry pmp ~index:i
    done;
    (* Lowest priority: OS-shared memory stays reachable — but only
       when every entry fitted. On overflow the core fails closed: with
       no background entry, an access no entry matches is denied, so a
       dropped deny cannot open foreign memory, and running out of PMP
       entries can cause spurious faults but never an isolation
       violation. Allows are written first, so overflow drops denies
       before any of the domain's own ranges. *)
    if !overflow then Hw.Pmp.clear_entry pmp ~index:background
    else
      Hw.Pmp.set_entry pmp ~index:background ~lo:0 ~hi:mem_bytes ~r:true
        ~w:true ~x:true ~locked:false
  in
  let phys_check ~(core : Hw.Machine.core) ~access ~paddr =
    Hw.Pmp.check core.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access ~paddr
  in
  let pte_fetch_check ~(core : Hw.Machine.core) ~paddr =
    Hw.Pmp.check core.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read
      ~paddr
  in
  Platform.make ~name:"keystone" ~alloc_unit:Hw.Phys_mem.page_size
    ~llc_partitioned:false ~phys_check ~pte_fetch_check ~program:program_pmp
    machine owners
