module Hw = Sanctorum_hw

let create machine =
  let mem_bytes = Hw.Phys_mem.size (Hw.Machine.mem machine) in
  let owners = Platform.owner_map machine in
  (* The last entry is the background allow; the rest hold ranges. *)
  let background = Hw.Pmp.count (Hw.Machine.core machine 0).Hw.Machine.pmp - 1 in
  (* The owner map's range list partitions memory, so the incoming
     domain's allows, every other enclave's denies and the monitor's
     entry 0 never overlap: whatever order they take, each address
     matches at most one of them, and the decision is the same. The
     order only sets the cost of [Pmp.check], which stops at the first
     match — so the domain's own ranges, which nearly every fetch, load
     and store hits, go first, and overflow drops denies before them.
     A layout depends only on the domain and the owner map, so it is
     computed once per owner-map version. *)
  let layouts = Hashtbl.create 16 and version = ref (-1) in
  let layout domain =
    let v = Owner_map.version owners in
    if v <> !version then (Hashtbl.reset layouts; version := v);
    match Hashtbl.find_opt layouts domain with
    | Some l -> l
    | None ->
        let allows = ref [] and denies = ref [] in
        Owner_map.iter_ranges owners (fun ~lo ~hi ~domain:d ->
            if d <> Hw.Trap.domain_sm && d <> Hw.Trap.domain_untrusted then
              if d = domain then allows := (lo, hi, true) :: !allows
              else denies := (lo, hi, false) :: !denies);
        let entries = List.rev !allows @ List.rev !denies in
        let fit = List.filteri (fun i _ -> i < background - 1) entries in
        let l = (Array.of_list fit, List.length entries >= background) in
        Hashtbl.add layouts domain l;
        l
  in
  let program_pmp (core : Hw.Machine.core) domain =
    let pmp = core.Hw.Machine.pmp in
    let entries, overflow = layout domain in
    Array.iteri
      (fun i (lo, hi, allow) ->
        Hw.Pmp.set_entry pmp ~index:(i + 1) ~lo ~hi ~r:allow ~w:allow
          ~x:allow ~locked:false)
      entries;
    for i = Array.length entries + 1 to background - 1 do
      Hw.Pmp.clear_entry pmp ~index:i
    done;
    (* Lowest priority: OS-shared memory stays reachable — but only
       when every entry fitted. On overflow the core fails closed: with
       no background entry, an access no entry matches is denied, so a
       dropped deny cannot open foreign memory, and running out of PMP
       entries can cause spurious faults but never an isolation
       violation. *)
    if overflow then Hw.Pmp.clear_entry pmp ~index:background
    else
      Hw.Pmp.set_entry pmp ~index:background ~lo:0 ~hi:mem_bytes ~r:true
        ~w:true ~x:true ~locked:false
  in
  (* Entry 0 on every core: the monitor's memory, locked, no access for
     any mode. The monitor model performs its own memory operations
     natively, standing in for M-mode execution. The others encode the
     core's domain from the start: grants reprogram only on a change. *)
  Array.iter
    (fun (c : Hw.Machine.core) ->
      Hw.Pmp.set_entry c.Hw.Machine.pmp ~index:0 ~lo:0
        ~hi:Platform.sm_memory_bytes ~r:false ~w:false ~x:false ~locked:true;
      program_pmp c c.Hw.Machine.domain)
    (Hw.Machine.cores machine);
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
