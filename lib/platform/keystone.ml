module Hw = Sanctorum_hw

(* The entries after the monitor's entry 0: [lo.(i)] and [hi.(i)] bound
   entry [i + 1], the first [allows] of them the domain's own ranges and
   the rest other enclaves' denies. [overflow]: some range did not fit. *)
type layout = { lo : int array; hi : int array; allows : int; overflow : bool }

let create machine =
  let mem_bytes = Hw.Phys_mem.size (Hw.Machine.mem machine) in
  let owners = Platform.owner_map machine in
  let cores = Hw.Machine.cores machine in
  (* The last entry is the background allow; the rest hold ranges. *)
  let background = Hw.Pmp.count cores.(0).Hw.Machine.pmp - 1 in
  let enclave d = d <> Hw.Trap.domain_sm && d <> Hw.Trap.domain_untrusted in
  (* The owner map's range list partitions memory, so the domain's
     allows, every other enclave's denies and the monitor's entry 0
     never overlap: whatever order they take, each address matches at
     most one of them, and the decision is the same. The order only
     sets the cost of [Pmp.check], which stops at the first match — so
     the domain's own ranges, which nearly every fetch, load and store
     hits, go first, and overflow drops denies before them. *)
  let build domain =
    let allows = ref 0 and total = ref 0 in
    Owner_map.iter_ranges owners (fun ~lo:_ ~hi:_ ~domain:d ->
        if enclave d then (incr total; if d = domain then incr allows));
    let n = min !total (background - 1) in
    let lo = Array.make n 0 and hi = Array.make n 0 in
    let next_allow = ref 0 and next_deny = ref !allows in
    Owner_map.iter_ranges owners (fun ~lo:l ~hi:h ~domain:d ->
        if enclave d then begin
          let i = if d = domain then next_allow else next_deny in
          if !i < n then (lo.(!i) <- l; hi.(!i) <- h);
          incr i
        end);
    { lo; hi; allows = min !allows n; overflow = !total > n }
  in
  (* A layout depends only on the domain and the owner map, so it is
     built once per owner-map version. *)
  let layouts = Hashtbl.create 16 and version = ref (-1) in
  let layout domain =
    let v = Owner_map.version owners in
    if v <> !version then (Hashtbl.reset layouts; version := v);
    match Hashtbl.find_opt layouts domain with
    | Some l -> l
    | None -> let l = build domain in Hashtbl.add layouts domain l; l
  in
  let program pmp l =
    let n = Array.length l.lo in
    for i = 0 to n - 1 do
      let allow = i < l.allows in
      Hw.Pmp.set_entry pmp ~index:(i + 1) ~lo:l.lo.(i) ~hi:l.hi.(i) ~r:allow
        ~w:allow ~x:allow ~locked:false
    done;
    for i = n + 1 to background - 1 do
      Hw.Pmp.clear_entry pmp ~index:i
    done;
    (* Lowest priority: OS-shared memory stays reachable — but only
       when every entry fitted. On overflow the core fails closed: with
       no background entry, an access no entry matches is denied, so a
       dropped deny cannot open foreign memory, and running out of PMP
       entries can cause spurious faults but never an isolation
       violation. *)
    if l.overflow then Hw.Pmp.clear_entry pmp ~index:background
    else
      Hw.Pmp.set_entry pmp ~index:background ~lo:0 ~hi:mem_bytes ~r:true
        ~w:true ~x:true ~locked:false
  in
  (* A core's entries after entry 0 cache the layout of one (domain,
     owner-map version) pair, recorded here, and nothing but the core's
     own checks reads them. So a check first rewrites them when the pair
     has moved, and every check sees the layout a reprogram at each
     grant and switch would have written, while a grant or a switch
     writes nothing. Version -1 is never current: a core's first check
     programs it. *)
  let held_domain = Array.make (Array.length cores) Hw.Trap.domain_untrusted
  and held_version = Array.make (Array.length cores) (-1) in
  let phys_check ~(core : Hw.Machine.core) ~access ~paddr =
    let id = core.Hw.Machine.id and d = core.Hw.Machine.domain in
    let v = Owner_map.version owners in
    if held_version.(id) <> v || held_domain.(id) <> d then begin
      program core.Hw.Machine.pmp (layout d);
      held_domain.(id) <- d;
      held_version.(id) <- v
    end;
    Hw.Pmp.check core.Hw.Machine.pmp ~privilege:Hw.Pmp.U ~access ~paddr
  in
  (* Entry 0 on every core: the monitor's memory, locked, no access for
     any mode. The monitor model performs its own memory operations
     natively, standing in for M-mode execution. *)
  Array.iter
    (fun (c : Hw.Machine.core) ->
      Hw.Pmp.set_entry c.Hw.Machine.pmp ~index:0 ~lo:0
        ~hi:Platform.sm_memory_bytes ~r:false ~w:false ~x:false ~locked:true)
    cores;
  Platform.make ~name:"keystone" ~alloc_unit:Hw.Phys_mem.page_size
    ~llc_partitioned:false ~phys_check
    ~pte_fetch_check:(fun ~core ~paddr ->
      phys_check ~core ~access:Hw.Trap.Read ~paddr)
    machine owners
