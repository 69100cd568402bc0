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
  enclaves : Sm.enclave_info array;  (* ascending eid, read this pass *)
  threads : int list;  (* ascending tid *)
  index : int Ints.t;  (* eid -> its place in [enclaves] *)
  by_domain : int Ints.t;
      (* domain -> the place of the first enclave holding it *)
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
    match Ints.find_opt ctx.by_domain d with
    | Some i -> Printf.sprintf "enclave:0x%x" ctx.enclaves.(i).i_eid
    | None -> Printf.sprintf "domain:%d" d

(* ------------------------------------------------------------------ *)
(* own.exclusive / own.sm-reserved: the three views of memory
   ownership — the Fig. 2 resource state machine, the platform owner
   map, and (through it) the isolation hardware — must agree on every
   allocation unit, and the monitor's own memory is never given away.
   The pass reads the resource table and the owner map and nothing
   else that moves, so [check] skips it while both versions stand
   where they stood at its last pass that found nothing.

   The units and the owner map's maximal same-owner ranges both
   partition memory in ascending order, and the pass walks them in
   step. A unit's first page the hardware gives elsewhere is the start,
   clipped to the unit, of its first range whose owner is not the one
   the unit's state names; a unit is finished, and its monitor
   reservation checked, at the range it ends in. *)

let expected_owner = function
  | Resource.Owned d | Resource.Blocked d -> d
  | Resource.Available | Resource.Offered _ -> Hw.Trap.domain_untrusted

let check_ownership ctx =
  let unit_bytes = Sm.memory_unit_bytes ctx.sm in
  let units = Sm.memory_units ctx.sm in
  let sm_units = Pf.Platform.sm_memory_bytes / unit_bytes in
  let exclusive rid state ~paddr hw =
    flag ctx "own.exclusive" ~subject:(Printf.sprintf "unit %d" rid)
      (Printf.sprintf "resource map says %s but hardware owner at 0x%x is %s"
         (domain_name ctx (expected_owner state))
         paddr (domain_name ctx hw))
  in
  (* the first unit not yet finished, and whether it was flagged *)
  let rid = ref 0 and flagged = ref false in
  ctx.pf.Pf.Platform.iter_ranges (fun ~lo ~hi ~domain ->
      (* the units that end inside the range, then one that goes on *)
      let first = !rid and stop = min units (hi / unit_bytes) in
      for r = first to stop - 1 do
        let state = Sm.memory_state ctx.sm ~rid:r in
        if (r > first || not !flagged) && expected_owner state <> domain then
          exclusive r state ~paddr:(max lo (r * unit_bytes)) domain;
        if r < sm_units then
          match state with
          | Resource.Owned d when d = Hw.Trap.domain_sm -> ()
          | _ ->
              flag ctx "own.sm-reserved" ~subject:(Printf.sprintf "unit %d" r)
                (Format.asprintf
                   "monitor-reserved unit is %a, expected owned by the monitor"
                   Resource.pp_state state)
      done;
      if stop > first then begin
        rid := stop;
        flagged := false
      end;
      let r = !rid in
      if r < units && r * unit_bytes < hi && not !flagged then begin
        let state = Sm.memory_state ctx.sm ~rid:r in
        if expected_owner state <> domain then begin
          flagged := true;
          exclusive r state ~paddr:(max lo (r * unit_bytes)) domain
        end
      end)

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
  | Table of { level : int; ppn : int }  (* a table frame read *)
  | Cycle of int  (* a table frame reached a second time *)
  | Leaf of { vaddr : int; ppn : int }
  | Pointer0 of { table : int; idx : int }  (* a pointer in a level-0 table *)
  | Beyond of { table : int; idx : int; ppn : int; leaf : bool }
      (* an entry naming a frame outside DRAM: not followed *)

(* [tables] holds each table frame the walk read and its generation at
   the time, in pairs, so the test for a replay reads one small array. *)
type walk = {
  root : int;
  steps : step list;
  tables : int array;
  mutable pass : int;
}

type skips = { ownership : int; replay : int; slots : int; ids : int }

(* [own_*], [replay_owners] and [slot_version] hold the versions the
   last pass of the ownership check, of the replay and of the slot
   check that found nothing read; -1 while there is none (no version is
   negative). [eids], [tids], [index] and [by_domain] are what the
   monitor's population version [population_version] gives. *)
type memo = {
  walks : walk Ints.t;  (* eid -> its walk at the last pass *)
  mutable monitor : Sm.t option;  (* the monitor the memo follows *)
  mutable passes : int;
  mutable replays : int;
  mutable own_resources : int;  (* resource-table version *)
  mutable own_owners : int;  (* owner-map version *)
  mutable replay_owners : int;  (* owner-map version *)
  mutable slot_version : int;
  mutable population_version : int;
  mutable eids : int array;  (* ascending *)
  mutable tids : int list;  (* ascending *)
  index : int Ints.t;  (* eid -> its place in [eids] *)
  by_domain : int Ints.t;
      (* domain -> the place of the first enclave holding it *)
  mutable skips : skips;
}

let memo () =
  {
    walks = Ints.create 64;
    monitor = None;
    passes = 0;
    replays = 0;
    own_resources = -1;
    own_owners = -1;
    replay_owners = -1;
    slot_version = -1;
    population_version = -1;
    eids = [||];
    tids = [];
    index = Ints.create 64;
    by_domain = Ints.create 64;
    skips = { ownership = 0; replay = 0; slots = 0; ids = 0 };
  }

let replays m = m.replays

let skips m = m.skips

(* A memo handed another monitor starts over. *)
let follow memo sm =
  match memo.monitor with
  | Some s when s == sm -> ()
  | Some _ | None ->
      Ints.reset memo.walks;
      memo.monitor <- Some sm;
      memo.own_resources <- -1;
      memo.own_owners <- -1;
      memo.replay_owners <- -1;
      memo.slot_version <- -1;
      memo.population_version <- -1

let record mem root =
  let frames = Hw.Phys_mem.size mem / page in
  let visited = Ints.create 16 in
  let steps = ref [] and tables = ref [] in
  let add s = steps := s :: !steps in
  let rec walk_table ppn ~level ~vpn_prefix =
    if Ints.mem visited ppn then add (Cycle ppn)
    else begin
      Ints.replace visited ppn ();
      add (Table { level; ppn });
      tables := Hw.Phys_mem.generation mem ppn :: ppn :: !tables;
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
  {
    root;
    steps = List.rev !steps;
    tables = Array.of_list (List.rev !tables);
    pass = 0;
  }

let unchanged mem w =
  let rec from i =
    i = Array.length w.tables
    || Hw.Phys_mem.generation mem w.tables.(i) = w.tables.(i + 1)
       && from (i + 2)
  in
  from 0

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
        match Ints.find_opt leaves ppn with
        | Some (other_eid, other_vaddr) ->
            flag ctx "pt.no-alias" ~subject:(enclave_subject e)
              (Printf.sprintf
                 "frame 0x%x mapped at 0x%x and (enclave 0x%x) 0x%x" paddr
                 vaddr other_eid other_vaddr)
        | None -> Ints.replace leaves ppn (e.i_eid, vaddr)
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

(* When every walk replays and none is forgotten, the pass walks the
   enclaves and records of the last pass (a reused eid brings a new
   domain and rewritten tables), so while the owner map also stands
   where it stood at the last replay that found nothing, the replay
   would find nothing again and is skipped. *)
let check_page_tables memo ctx =
  let mem = Hw.Machine.mem ctx.machine in
  memo.passes <- memo.passes + 1;
  let all_replay = ref true in
  let walk (e : Sm.enclave_info) =
    match e.i_root_ppn with
    | None -> None
    | Some root ->
        let w =
          match Ints.find_opt memo.walks e.i_eid with
          | Some w when w.root = root && unchanged mem w ->
              memo.replays <- memo.replays + 1;
              w
          | Some _ | None ->
              all_replay := false;
              let w = record mem root in
              Ints.replace memo.walks e.i_eid w;
              w
        in
        w.pass <- memo.passes;
        Some w
  in
  let walked = Array.map walk ctx.enclaves in
  (* forget the enclaves this pass did not walk: dead, or rootless *)
  let before = Ints.length memo.walks in
  Ints.filter_map_inplace
    (fun _ w -> if w.pass = memo.passes then Some w else None)
    memo.walks;
  let owners = ctx.pf.Pf.Platform.owner_version () in
  if
    !all_replay
    && Ints.length memo.walks = before
    && owners = memo.replay_owners
  then memo.skips <- { memo.skips with replay = memo.skips.replay + 1 }
  else begin
    let found = ctx.out and leaves = Ints.create 64 in
    Array.iteri
      (fun i -> function
        | Some w -> replay ctx leaves ctx.enclaves.(i) w.steps
        | None -> ())
      walked;
    memo.replay_owners <- (if ctx.out == found then owners else -1)
  end

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
  (* no line lies below the lowest fill the L2 has ever made *)
  let l2 = Hw.Machine.l2 ctx.machine in
  if Hw.Cache.lowest_fill l2 < Pf.Platform.sm_memory_bytes then
    Hw.Cache.iter_tags l2 (fun ~set:_ ~paddr ->
        if paddr < Pf.Platform.sm_memory_bytes then
          flag ctx "cache.no-residue" ~subject:"L2"
            (Printf.sprintf "L2 line tags monitor memory at 0x%x" paddr))

(* ------------------------------------------------------------------ *)
(* enclave.lifecycle / thread.lifecycle / core.domain: the Fig. 3/4
   state machines and the cores' domain registers must be mutually
   consistent — e.g. a thread can only be running in an initialized
   enclave, on a core whose domain register agrees. *)

let lifecycle ctx (e : Sm.enclave_info) detail =
  flag ctx "enclave.lifecycle" ~subject:(enclave_subject e) detail

let thread_flag ctx tid detail =
  flag ctx "thread.lifecycle" ~subject:(Printf.sprintf "thread 0x%x" tid) detail

(* The live enclave that owns an assigned or running thread, flagging a
   thread that has none. *)
let owner_enclave ctx tid (th : Sm.thread_info) =
  match th.i_owner with
  | None ->
      thread_flag ctx tid "assigned or running without an owning enclave";
      None
  | Some eid -> (
      match Ints.find_opt ctx.index eid with
      | None ->
          thread_flag ctx tid (Printf.sprintf "owned by dead enclave 0x%x" eid);
          None
      | Some i -> Some ctx.enclaves.(i))

let check_lifecycles ctx =
  Array.iter
    (fun (e : Sm.enclave_info) ->
      if e.i_initialized then begin
        if not e.i_has_measurement then
          lifecycle ctx e "initialized but the measurement was never finalized";
        if e.i_measuring then
          lifecycle ctx e "initialized but a measurement context is still open";
        if e.i_root_ppn = None then
          lifecycle ctx e "initialized without a page-table root"
      end
      else begin
        if e.i_has_measurement then
          lifecycle ctx e "loading but already carries a final measurement";
        if not e.i_measuring then
          lifecycle ctx e "loading but the measurement context is closed"
      end)
    ctx.enclaves;
  let running_on = Ints.create 8 in
  List.iter
    (fun tid ->
      match Sm.thread_info ctx.sm ~tid with
      | None -> ()
      | Some th -> (
          match th.Sm.i_phase with
          | `Available -> ()
          | `Assigned -> ignore (owner_enclave ctx tid th)
          | `Running core -> (
              (match Ints.find_opt running_on core with
              | Some other ->
                  thread_flag ctx tid
                    (Printf.sprintf "running on core %d alongside thread 0x%x"
                       core other)
              | None -> Ints.replace running_on core tid);
              match owner_enclave ctx tid th with
              | None -> ()
              | Some e ->
                  if not e.i_initialized then
                    thread_flag ctx tid
                      (Printf.sprintf
                         "running in enclave 0x%x which is still loading"
                         e.i_eid);
                  if core < 0 || core >= Hw.Machine.core_count ctx.machine
                  then
                    thread_flag ctx tid
                      (Printf.sprintf "running on nonexistent core %d" core)
                  else
                    let c = Hw.Machine.core ctx.machine core in
                    if c.Hw.Machine.domain <> e.i_domain then
                      thread_flag ctx tid
                        (Printf.sprintf
                           "running on core %d whose domain is %s, not %s" core
                           (domain_name ctx c.Hw.Machine.domain)
                           (domain_name ctx e.i_domain)))))
    ctx.threads

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
        match Ints.find_opt ctx.by_domain d with
        | None ->
            flag ctx "core.domain" ~subject:(subject ())
              (Printf.sprintf "domain register holds dead domain %d" d)
        | Some i ->
            let e = ctx.enclaves.(i) in
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

(* The enclave and thread ids and the two indexes change only when an
   enclave or a thread is created or deleted, so they are read again
   only once the monitor's population version has moved; the enclaves'
   records are read afresh on every pass. *)
let read_enclaves memo sm =
  let population = Sm.population_version sm in
  let moved = population <> memo.population_version in
  if moved then begin
    memo.population_version <- population;
    memo.eids <- Array.of_list (Sm.enclaves sm);
    memo.tids <- Sm.thread_ids sm;
    Ints.clear memo.index;
    Ints.clear memo.by_domain
  end
  else memo.skips <- { memo.skips with ids = memo.skips.ids + 1 };
  Array.mapi
    (fun i eid ->
      let e = Option.get (Sm.enclave_info sm ~eid) in
      if moved then begin
        Ints.replace memo.index eid i;
        if not (Ints.mem memo.by_domain e.i_domain) then
          Ints.replace memo.by_domain e.i_domain i
      end;
      e)
    memo.eids

let check memo sm =
  follow memo sm;
  let enclaves = read_enclaves memo sm in
  let ctx =
    {
      sm;
      pf = Sm.platform sm;
      machine = Sm.machine sm;
      enclaves;
      threads = memo.tids;
      index = memo.index;
      by_domain = memo.by_domain;
      out = [];
    }
  in
  let resources = Sm.resource_version sm
  and owners = ctx.pf.Pf.Platform.owner_version () in
  if resources = memo.own_resources && owners = memo.own_owners then
    memo.skips <- { memo.skips with ownership = memo.skips.ownership + 1 }
  else begin
    check_ownership ctx;
    let clean = ctx.out = [] in
    memo.own_resources <- (if clean then resources else -1);
    memo.own_owners <- (if clean then owners else -1)
  end;
  check_page_tables memo ctx;
  check_residue ctx;
  check_lifecycles ctx;
  check_cores ctx;
  (* the slot check reads the slot table and nothing else that moves *)
  let slots = Sm.slot_version sm in
  if slots = memo.slot_version then
    memo.skips <- { memo.skips with slots = memo.skips.slots + 1 }
  else begin
    let found = ctx.out in
    check_metadata ctx;
    memo.slot_version <- (if ctx.out == found then slots else -1)
  end;
  check_locks ctx;
  List.rev ctx.out
