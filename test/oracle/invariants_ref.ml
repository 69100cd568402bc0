(* The ownership scan and page-table walk of the invariant pass as they
   were before the pass kept a memo: every unit scanned page by page
   through a per-unit closure, every enclave's tables walked afresh on
   every call with a [read_u64] per slot, findings flagged as the walk
   reads them. The one change is the walk's handling of a valid entry
   that names a frame beyond DRAM, which used to raise from
   [owner_at]: it is reported as [pt.confined] and not followed, as
   the live pass does.

   [snapshot] is the reference for the whole pass: these two sub-passes
   in place of the live ones, followed by the live pass's other
   findings. Only the ownership pass reports [own.*] ids and only the
   walk reports [pt.*] ids, and they run first, in that order. The L2
   half of the residue check is replaced too, by a scan of every line
   that does not consult the cache's lowest fill: its findings (subject
   "L2") follow the per-core [tlb.no-stale] and [cache.no-residue]
   findings. *)
module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
module Sm = Sanctorum.Sm
module Resource = Sanctorum.Resource
module Report = Sanctorum_analysis.Report

let page = Hw.Phys_mem.page_size

type ctx = {
  sm : Sm.t;
  pf : Pf.Platform.t;
  enclaves : Sm.enclave_info list;
  by_domain : (Hw.Trap.domain, Sm.enclave_info) Hashtbl.t;
  mutable out : Report.violation list;
}

let context sm =
  let enclaves =
    List.filter_map (fun eid -> Sm.enclave_info sm ~eid) (Sm.enclaves sm)
  in
  let by_domain = Hashtbl.create 64 in
  List.iter
    (fun (e : Sm.enclave_info) ->
      if not (Hashtbl.mem by_domain e.i_domain) then
        Hashtbl.replace by_domain e.i_domain e)
    enclaves;
  { sm; pf = Sm.platform sm; enclaves; by_domain; out = [] }

let flag ctx id ~subject detail =
  ctx.out <- Report.v id ~subject detail :: ctx.out

let domain_name ctx d =
  if d = Hw.Trap.domain_sm then "sm"
  else if d = Hw.Trap.domain_untrusted then "untrusted"
  else
    match Hashtbl.find_opt ctx.by_domain d with
    | Some e -> Printf.sprintf "enclave:0x%x" e.i_eid
    | None -> Printf.sprintf "domain:%d" d

let check_ownership ctx =
  let unit_bytes = Sm.memory_unit_bytes ctx.sm in
  let sm_units = Pf.Platform.sm_memory_bytes / unit_bytes in
  for rid = 0 to Sm.memory_units ctx.sm - 1 do
    let subject () = Printf.sprintf "unit %d" rid in
    match Sm.resource_state ctx.sm Resource.Memory_resource ~rid with
    | Error e ->
        flag ctx "own.exclusive" ~subject:(subject ())
          (Printf.sprintf "resource state unreadable: %s"
             (Sanctorum.Api_error.to_string e))
    | Ok state ->
        let expected_hw =
          match state with
          | Resource.Owned d | Resource.Blocked d -> d
          | Resource.Available | Resource.Offered _ ->
              Hw.Trap.domain_untrusted
        in
        let lo = rid * unit_bytes in
        let rec scan paddr =
          if paddr < lo + unit_bytes then begin
            let hw = ctx.pf.Pf.Platform.owner_at ~paddr in
            if hw <> expected_hw then
              flag ctx "own.exclusive" ~subject:(subject ())
                (Printf.sprintf
                   "resource map says %s but hardware owner at 0x%x is %s"
                   (domain_name ctx expected_hw)
                   paddr (domain_name ctx hw))
            else scan (paddr + page)
          end
        in
        scan lo;
        if rid < sm_units && state <> Resource.Owned Hw.Trap.domain_sm then
          flag ctx "own.sm-reserved" ~subject:(subject ())
            (Format.asprintf
               "monitor-reserved unit is %a, expected owned by the monitor"
               Resource.pp_state state)
  done

(* The ownership scan alone: its [own.*] findings, in order. *)
let ownership sm =
  let ctx = context sm in
  check_ownership ctx;
  List.rev ctx.out

let check_page_tables ctx =
  let mem = Hw.Machine.mem (Sm.machine ctx.sm) in
  let frames = Hw.Phys_mem.size mem / page in
  let leaves : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let walk_enclave (e : Sm.enclave_info) root =
    let subject () = Printf.sprintf "enclave 0x%x" e.i_eid in
    let visited = Hashtbl.create 16 in
    let in_evrange vaddr =
      vaddr >= e.i_evbase && vaddr < e.i_evbase + e.i_evsize
    in
    let beyond ~leaf table_paddr idx ppn =
      flag ctx "pt.confined" ~subject:(subject ())
        (Printf.sprintf "%s at table 0x%x index %d names frame 0x%x beyond DRAM"
           (if leaf then "leaf" else "pointer")
           table_paddr idx (Hw.Phys_mem.page_base ppn))
    in
    let check_leaf ~vaddr ppn =
      let paddr = Hw.Phys_mem.page_base ppn in
      let owner = ctx.pf.Pf.Platform.owner_at ~paddr in
      if in_evrange vaddr then begin
        if owner <> e.i_domain then
          flag ctx "pt.confined" ~subject:(subject ())
            (Printf.sprintf
               "evrange mapping 0x%x -> frame 0x%x lies in %s memory" vaddr
               paddr (domain_name ctx owner));
        match Hashtbl.find_opt leaves ppn with
        | Some (other_eid, other_vaddr) ->
            flag ctx "pt.no-alias" ~subject:(subject ())
              (Printf.sprintf
                 "frame 0x%x mapped at 0x%x and (enclave 0x%x) 0x%x" paddr
                 vaddr other_eid other_vaddr)
        | None -> Hashtbl.replace leaves ppn (e.i_eid, vaddr)
      end
      else if owner <> Hw.Trap.domain_untrusted && owner <> e.i_domain then
        flag ctx "pt.confined" ~subject:(subject ())
          (Printf.sprintf
             "shared-window mapping 0x%x -> frame 0x%x lies in %s memory"
             vaddr paddr (domain_name ctx owner))
    in
    let rec walk_table ppn ~level ~vpn_prefix =
      if Hashtbl.mem visited ppn then
        flag ctx "pt.confined" ~subject:(subject ())
          (Printf.sprintf "page-table cycle through table frame 0x%x"
             (Hw.Phys_mem.page_base ppn))
      else begin
        Hashtbl.replace visited ppn ();
        let table_paddr = Hw.Phys_mem.page_base ppn in
        let owner = ctx.pf.Pf.Platform.owner_at ~paddr:table_paddr in
        if owner <> e.i_domain then
          flag ctx "pt.confined" ~subject:(subject ())
            (Printf.sprintf "level-%d table frame 0x%x lies in %s memory"
               level table_paddr (domain_name ctx owner));
        for idx = 0 to (page / Hw.Page_table.pte_size) - 1 do
          let pte =
            Hw.Phys_mem.read_u64 mem
              (table_paddr + (idx * Hw.Page_table.pte_size))
          in
          match Hw.Page_table.decode_pte pte with
          | Error () -> ()
          | Ok (child_ppn, _perms, is_leaf) ->
              let vpn = (vpn_prefix lsl 9) lor idx in
              if is_leaf then
                if child_ppn >= frames then
                  beyond ~leaf:true table_paddr idx child_ppn
                else check_leaf ~vaddr:(vpn lsl ((level * 9) + 12)) child_ppn
              else if level = 0 then
                flag ctx "pt.confined" ~subject:(subject ())
                  (Printf.sprintf
                     "level-0 entry at table 0x%x index %d is a pointer"
                     table_paddr idx)
              else if child_ppn >= frames then
                beyond ~leaf:false table_paddr idx child_ppn
              else walk_table child_ppn ~level:(level - 1) ~vpn_prefix:vpn
        done
      end
    in
    walk_table root ~level:(Hw.Page_table.levels - 1) ~vpn_prefix:0
  in
  List.iter
    (fun (e : Sm.enclave_info) ->
      match e.i_root_ppn with
      | Some root -> walk_enclave e root
      | None -> ())
    ctx.enclaves

let l2_residue sm =
  let out = ref [] in
  Hw.Cache.iter_tags (Hw.Machine.l2 (Sm.machine sm)) (fun ~set:_ ~paddr ->
      if paddr < Pf.Platform.sm_memory_bytes then
        out :=
          Report.v "cache.no-residue" ~subject:"L2"
            (Printf.sprintf "L2 line tags monitor memory at 0x%x" paddr)
          :: !out);
  List.rev !out

let l2_finding (v : Report.violation) =
  v.id = "cache.no-residue" && v.subject = "L2"

let rec after_core_residue l2 = function
  | (v : Report.violation) :: rest
    when v.id = "tlb.no-stale" || v.id = "cache.no-residue" ->
      v :: after_core_residue l2 rest
  | rest -> l2 @ rest

let snapshot sm =
  let ctx = context sm in
  check_ownership ctx;
  check_page_tables ctx;
  let replaced (v : Report.violation) =
    String.starts_with ~prefix:"own." v.id
    || String.starts_with ~prefix:"pt." v.id
    || l2_finding v
  in
  List.rev ctx.out
  @ after_core_residue (l2_residue sm)
      (List.filter
         (fun v -> not (replaced v))
         (Sanctorum_analysis.Checker.snapshot sm))
