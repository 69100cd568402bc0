(* The snapshot pass: given a quiescent monitor (between API calls),
   cross-check the monitor's resource/enclave/thread metadata against
   the platform owner map and the machine's architectural and
   microarchitectural state. Every check is read-only. *)

module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
module Sm = Sanctorum.Sm
module Resource = Sanctorum.Resource

let page = Hw.Phys_mem.page_size

(* Every id [check] can report, in catalog order. The catalog-sync
   test holds this list, Checker.catalog and the DESIGN.md §4.1 table
   to exact agreement. *)
let ids =
  [
    "own.exclusive";
    "own.sm-reserved";
    "pt.confined";
    "pt.no-alias";
    "tlb.no-stale";
    "cache.no-residue";
    "enclave.lifecycle";
    "thread.lifecycle";
    "core.domain";
    "core.quarantine";
    "meta.slots";
    "lock.quiescent";
  ]

type ctx = {
  sm : Sm.t;
  pf : Pf.Platform.t;
  machine : Hw.Machine.t;
  enclaves : Sm.enclave_info list;  (* ascending eid *)
  by_eid : (int, Sm.enclave_info) Hashtbl.t;
  by_domain : (Hw.Trap.domain, Sm.enclave_info) Hashtbl.t;
      (* the first enclave in [enclaves] holding each domain *)
  mutable out : Report.violation list;
}

(* Callers build [subject] at the flag site, not per object visited: a
   pass visits thousands of allocation units and almost never fires. *)
let flag ctx ?severity id ~subject detail =
  ctx.out <- Report.v ?severity id ~subject detail :: ctx.out

let domain_name ctx d =
  if d = Hw.Trap.domain_sm then "sm"
  else if d = Hw.Trap.domain_untrusted then "untrusted"
  else
    match Hashtbl.find_opt ctx.by_domain d with
    | Some e -> Printf.sprintf "enclave:0x%x" e.i_eid
    | None -> Printf.sprintf "domain:%d" d

(* ------------------------------------------------------------------ *)
(* own.exclusive / own.sm-reserved: the three views of memory
   ownership — the Fig. 2 resource state machine, the platform owner
   map, and (through it) the isolation hardware — must agree on every
   allocation unit, and the monitor's own memory is never given away. *)

let check_ownership ctx =
  let unit_bytes = Sm.memory_unit_bytes ctx.sm in
  let sm_units = Pf.Platform.sm_memory_bytes / unit_bytes in
  let owner_at = ctx.pf.Pf.Platform.owner_at in
  for rid = 0 to Sm.memory_units ctx.sm - 1 do
    match Sm.resource_state ctx.sm Resource.Memory_resource ~rid with
    | Error e ->
        flag ctx "own.exclusive" ~subject:(Printf.sprintf "unit %d" rid)
          (Printf.sprintf "resource state unreadable: %s"
             (Sanctorum.Api_error.to_string e))
    | Ok state ->
        let expected_hw =
          match state with
          | Resource.Owned d | Resource.Blocked d -> d
          | Resource.Available | Resource.Offered _ -> Hw.Trap.domain_untrusted
        in
        (* stop at the unit's first page the hardware gives elsewhere *)
        let hi = (rid + 1) * unit_bytes in
        let paddr = ref (rid * unit_bytes) in
        while !paddr < hi && owner_at ~paddr:!paddr = expected_hw do
          paddr := !paddr + page
        done;
        if !paddr < hi then begin
          let hw = owner_at ~paddr:!paddr in
          flag ctx "own.exclusive" ~subject:(Printf.sprintf "unit %d" rid)
            (Printf.sprintf
               "resource map says %s but hardware owner at 0x%x is %s"
               (domain_name ctx expected_hw)
               !paddr (domain_name ctx hw))
        end;
        if rid < sm_units && state <> Resource.Owned Hw.Trap.domain_sm then
          flag ctx "own.sm-reserved" ~subject:(Printf.sprintf "unit %d" rid)
            (Format.asprintf
               "monitor-reserved unit is %a, expected owned by the monitor"
               Resource.pp_state state)
  done

(* ------------------------------------------------------------------ *)
(* pt.confined / pt.no-alias: a full Sv39 walk of every enclave's
   private page tables. Table pages and evrange leaves must live in
   the enclave's own domain; leaves outside evrange are shared windows
   and must point at untrusted memory; no frame inside evrange is
   mapped twice, within or across enclaves (§V-C, the Sanctum
   page-walk invariant).

   A walk is recorded as what it read, in walk order, and every finding
   comes from replaying that record against the current state. What
   the walk reads is a function of the root and of the bytes of the
   table frames it visits, nothing else: so while the root is the same
   and no visited frame's {!Hw.Phys_mem.generation} has moved, a fresh
   walk would read the same record again, and the memo replays it
   instead. The checks that read other state (the owner map, evrange,
   the leaves of other enclaves) run on every replay. *)

type step =
  | Table of { level : int; ppn : int; gen : int }
      (* a table frame read, with its generation at the time *)
  | Cycle of int  (* a table frame reached a second time *)
  | Leaf of { vaddr : int; ppn : int }
  | Pointer0 of { table : int; idx : int }  (* a pointer in a level-0 table *)
  | Beyond of { table : int; idx : int; ppn : int; leaf : bool }
      (* an entry naming a frame outside DRAM: not followed *)

type walk = { root : int; steps : step list; mutable pass : int }

type memo = {
  walks : (int, walk) Hashtbl.t;  (* eid -> its walk at the last pass *)
  mutable mem : Hw.Phys_mem.t option;  (* the memory the walks read *)
  mutable passes : int;
  mutable replays : int;
}

let memo () = { walks = Hashtbl.create 64; mem = None; passes = 0; replays = 0 }
let replays m = m.replays

let record mem root =
  let frames = Hw.Phys_mem.size mem / page in
  let visited = Hashtbl.create 16 in
  let steps = ref [] in
  let add s = steps := s :: !steps in
  let rec walk_table ppn ~level ~vpn_prefix =
    if Hashtbl.mem visited ppn then add (Cycle ppn)
    else begin
      Hashtbl.replace visited ppn ();
      add (Table { level; ppn; gen = Hw.Phys_mem.generation mem ppn });
      let table = Hw.Phys_mem.page_base ppn in
      (* an all-zero slot is never a valid entry *)
      Hw.Phys_mem.iter_nonzero_words mem ~pos:table ~len:page
        (fun pte_paddr pte ->
          match Hw.Page_table.decode_pte pte with
          | Error () -> ()
          | Ok (child, _perms, is_leaf) ->
              let idx = (pte_paddr - table) / Hw.Page_table.pte_size in
              let vpn = (vpn_prefix lsl 9) lor idx in
              if is_leaf && child >= frames then
                add (Beyond { table; idx; ppn = child; leaf = true })
              else if is_leaf then
                (* superpage leaves resolve to their base frame; the
                   loader only installs 4 KiB leaves *)
                add (Leaf { vaddr = vpn lsl ((level * 9) + 12); ppn = child })
              else if level = 0 then add (Pointer0 { table; idx })
              else if child >= frames then
                add (Beyond { table; idx; ppn = child; leaf = false })
              else walk_table child ~level:(level - 1) ~vpn_prefix:vpn)
    end
  in
  walk_table root ~level:(Hw.Page_table.levels - 1) ~vpn_prefix:0;
  List.rev !steps

let rec unchanged mem = function
  | [] -> true
  | Table { ppn; gen; _ } :: rest ->
      Hw.Phys_mem.generation mem ppn = gen && unchanged mem rest
  | (Cycle _ | Leaf _ | Pointer0 _ | Beyond _) :: rest -> unchanged mem rest

let enclave_subject (e : Sm.enclave_info) =
  Printf.sprintf "enclave 0x%x" e.i_eid

(* [leaves] maps the frame of every evrange leaf replayed so far this
   pass to its (eid, vaddr), for alias detection. *)
let replay_step ctx leaves (e : Sm.enclave_info) step =
  let owner_at = ctx.pf.Pf.Platform.owner_at in
  match step with
  | Table { level; ppn; _ } ->
      let paddr = Hw.Phys_mem.page_base ppn in
      let owner = owner_at ~paddr in
      if owner <> e.i_domain then
        flag ctx "pt.confined" ~subject:(enclave_subject e)
          (Printf.sprintf "level-%d table frame 0x%x lies in %s memory"
             level paddr (domain_name ctx owner))
  | Cycle ppn ->
      flag ctx "pt.confined" ~subject:(enclave_subject e)
        (Printf.sprintf "page-table cycle through table frame 0x%x"
           (Hw.Phys_mem.page_base ppn))
  | Leaf { vaddr; ppn } ->
      let paddr = Hw.Phys_mem.page_base ppn in
      let owner = owner_at ~paddr in
      if vaddr >= e.i_evbase && vaddr < e.i_evbase + e.i_evsize then begin
        if owner <> e.i_domain then
          flag ctx "pt.confined" ~subject:(enclave_subject e)
            (Printf.sprintf
               "evrange mapping 0x%x -> frame 0x%x lies in %s memory" vaddr
               paddr (domain_name ctx owner));
        match Hashtbl.find_opt leaves ppn with
        | Some (other_eid, other_vaddr) ->
            flag ctx "pt.no-alias" ~subject:(enclave_subject e)
              (Printf.sprintf
                 "frame 0x%x mapped at 0x%x and (enclave 0x%x) 0x%x" paddr
                 vaddr other_eid other_vaddr)
        | None -> Hashtbl.replace leaves ppn (e.i_eid, vaddr)
      end
      else if owner <> Hw.Trap.domain_untrusted && owner <> e.i_domain then
        (* a window the OS later granted to this enclave is harmless;
           monitor or foreign-enclave memory is a breach *)
        flag ctx "pt.confined" ~subject:(enclave_subject e)
          (Printf.sprintf
             "shared-window mapping 0x%x -> frame 0x%x lies in %s memory"
             vaddr paddr (domain_name ctx owner))
  | Pointer0 { table; idx } ->
      flag ctx "pt.confined" ~subject:(enclave_subject e)
        (Printf.sprintf "level-0 entry at table 0x%x index %d is a pointer"
           table idx)
  | Beyond { table; idx; ppn; leaf } ->
      let entry = if leaf then "leaf" else "pointer" in
      let frame = Hw.Phys_mem.page_base ppn in
      flag ctx "pt.confined" ~subject:(enclave_subject e)
        (Printf.sprintf "%s at table 0x%x index %d names frame 0x%x beyond DRAM"
           entry table idx frame)

let rec replay ctx leaves e = function
  | [] -> ()
  | step :: rest ->
      replay_step ctx leaves e step;
      replay ctx leaves e rest

let check_page_tables memo ctx =
  let mem = Hw.Machine.mem ctx.machine in
  (match memo.mem with
  | Some m when m == mem -> ()
  | Some _ | None ->
      Hashtbl.reset memo.walks;
      memo.mem <- Some mem);
  memo.passes <- memo.passes + 1;
  let leaves = Hashtbl.create 64 in
  List.iter
    (fun (e : Sm.enclave_info) ->
      match e.i_root_ppn with
      | None -> ()
      | Some root ->
          let w =
            match Hashtbl.find_opt memo.walks e.i_eid with
            | Some w when w.root = root && unchanged mem w.steps ->
                memo.replays <- memo.replays + 1;
                w
            | Some _ | None ->
                let w = { root; steps = record mem root; pass = 0 } in
                Hashtbl.replace memo.walks e.i_eid w;
                w
          in
          w.pass <- memo.passes;
          replay ctx leaves e w.steps)
    ctx.enclaves;
  (* forget the enclaves this pass did not walk: dead, or rootless *)
  Hashtbl.filter_map_inplace
    (fun _ w -> if w.pass = memo.passes then Some w else None)
    memo.walks

(* ------------------------------------------------------------------ *)
(* tlb.no-stale / cache.no-residue: after every domain transition and
   region clean the monitor flushes time-multiplexed state, so a
   quiescent machine never holds a translation or a private cache line
   for memory a core's current domain does not own (§IV-B2, §VII-A).
   The shared L2 may legitimately hold lines of any live domain (that
   is Keystone's documented side channel), but never of the monitor's
   own memory, which no core can access. *)

let check_residue ctx =
  Array.iter
    (fun (c : Hw.Machine.core) ->
      if c.Hw.Machine.quarantined then
        (* A core quarantined after a shootdown timeout is unreachable:
           its stale TLB and L1 contents can never be observed, so they
           are exempt here ([check_cores] insists the core is halted). *)
        ()
      else
      let subject () = Printf.sprintf "core %d" c.Hw.Machine.id in
      let allowed owner =
        owner = c.Hw.Machine.domain || owner = Hw.Trap.domain_untrusted
      in
      Hw.Tlb.iter_entries c.Hw.Machine.tlb (fun ~vpn ~ppn ~perms:_ ->
          let paddr = Hw.Phys_mem.page_base ppn in
          let owner = ctx.pf.Pf.Platform.owner_at ~paddr in
          if not (allowed owner) then
            flag ctx "tlb.no-stale" ~subject:(subject ())
              (Printf.sprintf
                 "TLB entry 0x%x -> 0x%x survives into %s context but frame \
                  is owned by %s"
                 (vpn * page) paddr
                 (domain_name ctx c.Hw.Machine.domain)
                 (domain_name ctx owner)));
      Hw.Cache.iter_tags c.Hw.Machine.l1 (fun ~set:_ ~paddr ->
          let owner = ctx.pf.Pf.Platform.owner_at ~paddr in
          if not (allowed owner) then
            flag ctx "cache.no-residue" ~subject:(subject ())
              (Printf.sprintf
                 "L1 line tags 0x%x (owned by %s) in %s context" paddr
                 (domain_name ctx owner)
                 (domain_name ctx c.Hw.Machine.domain))))
    (Hw.Machine.cores ctx.machine);
  Hw.Cache.iter_tags (Hw.Machine.l2 ctx.machine) (fun ~set:_ ~paddr ->
      if paddr < Pf.Platform.sm_memory_bytes then
        flag ctx "cache.no-residue" ~subject:"L2"
          (Printf.sprintf "L2 line tags monitor memory at 0x%x" paddr))

(* ------------------------------------------------------------------ *)
(* enclave.lifecycle / thread.lifecycle / core.domain: the Fig. 3/4
   state machines and the cores' domain registers must be mutually
   consistent — e.g. a thread can only be running in an initialized
   enclave, on a core whose domain register agrees. *)

let check_lifecycles ctx =
  List.iter
    (fun (e : Sm.enclave_info) ->
      let subject () = Printf.sprintf "enclave 0x%x" e.i_eid in
      if e.i_initialized then begin
        if not e.i_has_measurement then
          flag ctx "enclave.lifecycle" ~subject:(subject ())
            "initialized but the measurement was never finalized";
        if e.i_measuring then
          flag ctx "enclave.lifecycle" ~subject:(subject ())
            "initialized but a measurement context is still open";
        if e.i_root_ppn = None then
          flag ctx "enclave.lifecycle" ~subject:(subject ())
            "initialized without a page-table root"
      end
      else begin
        if e.i_has_measurement then
          flag ctx "enclave.lifecycle" ~subject:(subject ())
            "loading but already carries a final measurement";
        if not e.i_measuring then
          flag ctx "enclave.lifecycle" ~subject:(subject ())
            "loading but the measurement context is closed"
      end)
    ctx.enclaves;
  let running_on : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun tid ->
      match Sm.thread_info ctx.sm ~tid with
      | None -> ()
      | Some th ->
          let subject () = Printf.sprintf "thread 0x%x" tid in
          let owner_enclave () =
            match th.Sm.i_owner with
            | None ->
                flag ctx "thread.lifecycle" ~subject:(subject ())
                  "assigned or running without an owning enclave";
                None
            | Some eid -> (
                match Hashtbl.find_opt ctx.by_eid eid with
                | None ->
                    flag ctx "thread.lifecycle" ~subject:(subject ())
                      (Printf.sprintf "owned by dead enclave 0x%x" eid);
                    None
                | Some e -> Some e)
          in
          (match th.Sm.i_phase with
          | `Available -> ()
          | `Assigned -> ignore (owner_enclave ())
          | `Running core -> (
              (match Hashtbl.find_opt running_on core with
              | Some other ->
                  flag ctx "thread.lifecycle" ~subject:(subject ())
                    (Printf.sprintf
                       "running on core %d alongside thread 0x%x" core other)
              | None -> Hashtbl.replace running_on core tid);
              match owner_enclave () with
              | None -> ()
              | Some e ->
                  if not e.i_initialized then
                    flag ctx "thread.lifecycle" ~subject:(subject ())
                      (Printf.sprintf
                         "running in enclave 0x%x which is still loading"
                         e.i_eid);
                  if core < 0 || core >= Hw.Machine.core_count ctx.machine
                  then
                    flag ctx "thread.lifecycle" ~subject:(subject ())
                      (Printf.sprintf "running on nonexistent core %d" core)
                  else
                    let c = Hw.Machine.core ctx.machine core in
                    if c.Hw.Machine.domain <> e.i_domain then
                      flag ctx "thread.lifecycle" ~subject:(subject ())
                        (Printf.sprintf
                           "running on core %d whose domain is %s, not %s"
                           core
                           (domain_name ctx c.Hw.Machine.domain)
                           (domain_name ctx e.i_domain)))))
    (Sm.thread_ids ctx.sm)

let check_cores ctx =
  Array.iter
    (fun (c : Hw.Machine.core) ->
      let subject () = Printf.sprintf "core %d" c.Hw.Machine.id in
      let d = c.Hw.Machine.domain in
      if c.Hw.Machine.quarantined then begin
        (* A quarantined core may hold a stale domain register (it was
           unreachable when its domain died), but it must be fenced:
           halted, with no interrupt that could ever wake it. *)
        if not c.Hw.Machine.halted then
          flag ctx "core.quarantine" ~subject:(subject ())
            "quarantined core is not halted";
        if not (Queue.is_empty c.Hw.Machine.pending_interrupts) then
          flag ctx "core.quarantine" ~subject:(subject ())
            "quarantined core still has pending interrupts";
        if c.Hw.Machine.timer_cmp <> None then
          flag ctx "core.quarantine" ~subject:(subject ())
            "quarantined core still has an armed timer"
      end
      else if d = Hw.Trap.domain_sm || d = Hw.Trap.domain_untrusted then ()
      else
        match Hashtbl.find_opt ctx.by_domain d with
        | None ->
            flag ctx "core.domain" ~subject:(subject ())
              (Printf.sprintf "domain register holds dead domain %d" d)
        | Some e ->
            if c.Hw.Machine.satp_root <> e.i_root_ppn then
              flag ctx "core.domain" ~subject:(subject ())
                (Printf.sprintf
                   "inside enclave 0x%x but satp does not hold its root"
                   e.i_eid))
    (Hw.Machine.cores ctx.machine)

(* ------------------------------------------------------------------ *)
(* meta.slots: enclave/thread metadata slots live inside the monitor's
   metadata window and never overlap (§V-B). *)

let check_metadata ctx =
  let base = Sm.metadata_base ctx.sm and limit = Sm.metadata_limit ctx.sm in
  let rec go = function
    | [] -> ()
    | (addr, len) :: rest ->
        let subject () = Printf.sprintf "slot 0x%x" addr in
        if len <= 0 then
          flag ctx "meta.slots" ~subject:(subject ())
            "slot has non-positive length"
        else if addr < base || addr + len > limit then
          flag ctx "meta.slots" ~subject:(subject ())
            (Printf.sprintf
               "slot [0x%x, 0x%x) escapes the metadata window [0x%x, 0x%x)"
               addr (addr + len) base limit)
        else begin
          (match rest with
          | (next, _) :: _ when next < addr + len ->
              flag ctx "meta.slots" ~subject:(subject ())
                (Printf.sprintf "slot overlaps the slot at 0x%x" next)
          | _ -> ());
          go rest
        end
  in
  go (Sm.metadata_slots ctx.sm)

(* ------------------------------------------------------------------ *)
(* lock.quiescent: between API transactions no fine-grained lock may
   remain held — a held lock here is a leak that would deadlock the
   next transaction into Concurrent_call forever (§V-A). *)

let check_locks ctx =
  List.iter
    (fun name ->
      flag ctx "lock.quiescent" ~subject:name
        "lock is still held between API calls")
    (Sm.held_locks ctx.sm)

let check memo sm =
  let enclaves =
    List.filter_map (fun eid -> Sm.enclave_info sm ~eid) (Sm.enclaves sm)
  in
  let by_eid = Hashtbl.create 64 and by_domain = Hashtbl.create 64 in
  List.iter
    (fun (e : Sm.enclave_info) ->
      Hashtbl.replace by_eid e.i_eid e;
      if not (Hashtbl.mem by_domain e.i_domain) then
        Hashtbl.replace by_domain e.i_domain e)
    enclaves;
  let ctx =
    {
      sm;
      pf = Sm.platform sm;
      machine = Sm.machine sm;
      enclaves;
      by_eid;
      by_domain;
      out = [];
    }
  in
  check_ownership ctx;
  check_page_tables memo ctx;
  check_residue ctx;
  check_lifecycles ctx;
  check_cores ctx;
  check_metadata ctx;
  check_locks ctx;
  List.rev ctx.out
