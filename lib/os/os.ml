module Hw = Sanctorum_hw
module Pf = Sanctorum_platform

type run_outcome =
  | Exited
  | Preempted
  | Faulted of Hw.Trap.cause
  | Fuel_exhausted
  | Killed

type installed = {
  eid : int;
  tids : int list;
  shared_paddrs : (int * int * int) list;
}

type t = {
  sm : Sanctorum.Sm.t;
  machine : Hw.Machine.t;
  mutable staging_next : int;
  staging_limit : int;
  pool_first_unit : int;
  unit_free : bool array; (* indexed from pool_first_unit *)
  mutable metadata_next : int;
  mutable free_enclave_slots : int list;
  mutable free_thread_slots : int list;
  mutable scratch_page : int option; (* staging page reused for loads *)
  mutable events : Hw.Trap.cause list; (* newest first *)
  granted : (int, int list) Hashtbl.t; (* eid -> units *)
  thread_table : (int, int list) Hashtbl.t; (* eid -> tids *)
}

let ( let* ) = Result.bind
let page = Hw.Phys_mem.page_size

(* Monitor calls can abort with [Concurrent_call] when a fine-grained
   lock is held (§V-A): the documented protocol is simply to retry the
   transaction. The driver retries a bounded number of times so a lock
   leaked by a fault cannot spin the OS forever. *)
let transient_retries = 4

let retry_transient f =
  let rec go n =
    match f () with
    | Error Sanctorum.Api_error.Concurrent_call when n > 0 -> go (n - 1)
    | r -> r
  in
  go transient_retries

(* The OS heap: memory above the monitor's reservation that the OS
   keeps for itself (staging buffers, its own page tables, shared
   windows). Never granted to enclaves. *)
let os_heap_base = Pf.Platform.sm_memory_bytes
let os_heap_bytes = 512 * 1024

let create sm =
  let machine = Sanctorum.Sm.machine sm in
  let unit_bytes = Sanctorum.Sm.memory_unit_bytes sm in
  let pool_base = os_heap_base + os_heap_bytes in
  let pool_first_unit = (pool_base + unit_bytes - 1) / unit_bytes in
  let total_units = Sanctorum.Sm.memory_units sm in
  let t =
    {
      sm;
      machine;
      staging_next = os_heap_base;
      staging_limit = pool_base;
      pool_first_unit;
      unit_free = Array.make (max 0 (total_units - pool_first_unit)) true;
      metadata_next = Sanctorum.Sm.metadata_base sm;
      free_enclave_slots = [];
      free_thread_slots = [];
      scratch_page = None;
      events = [];
      granted = Hashtbl.create 8;
      thread_table = Hashtbl.create 8;
    }
  in
  Sanctorum.Sm.set_os_trap_handler sm (fun core cause ->
      t.events <- cause :: t.events;
      (* The OS's handler runs natively: park the core so control
         returns to the scheduler loop. *)
      core.Hw.Machine.halted <- true);
  t

let sm t = t.sm
let machine t = t.machine
let unit_bytes t = Sanctorum.Sm.memory_unit_bytes t.sm

let delegated_events t = List.rev t.events
let clear_delegated_events t = t.events <- []

(* --------------------------------------------------------------- *)
(* Allocation *)

let alloc_metadata t kind =
  let pop_free () =
    match kind with
    | `Enclave -> begin
        match t.free_enclave_slots with
        | a :: rest ->
            t.free_enclave_slots <- rest;
            Some a
        | [] -> None
      end
    | `Thread -> begin
        match t.free_thread_slots with
        | a :: rest ->
            t.free_thread_slots <- rest;
            Some a
        | [] -> None
      end
  in
  match pop_free () with
  | Some addr -> addr
  | None ->
      let size =
        match kind with
        | `Enclave -> Sanctorum.Sm.enclave_slot_bytes
        | `Thread -> Sanctorum.Sm.thread_slot_bytes
      in
      let addr = Sanctorum_util.Bits.align_up t.metadata_next 8 in
      if addr + size > Sanctorum.Sm.metadata_limit t.sm then raise Out_of_memory
      else begin
        t.metadata_next <- addr + size;
        addr
      end

let release_metadata t kind addr =
  match kind with
  | `Enclave -> t.free_enclave_slots <- addr :: t.free_enclave_slots
  | `Thread -> t.free_thread_slots <- addr :: t.free_thread_slots

let alloc_staging t ~bytes =
  let addr = Sanctorum_util.Bits.align_up t.staging_next page in
  let len = Sanctorum_util.Bits.align_up (max bytes 1) page in
  if addr + len > t.staging_limit then raise Out_of_memory
  else begin
    t.staging_next <- addr + len;
    addr
  end

let alloc_units t ~count =
  if count <= 0 then invalid_arg "Os.alloc_units: count must be positive";
  let n = Array.length t.unit_free in
  let rec find start =
    if start + count > n then raise Out_of_memory
    else begin
      let rec all_free i = i = count || (t.unit_free.(start + i) && all_free (i + 1)) in
      if all_free 0 then start else find (start + 1)
    end
  in
  let start = find 0 in
  List.init count (fun i ->
      t.unit_free.(start + i) <- false;
      t.pool_first_unit + start + i)

let free_units t units =
  List.iter
    (fun rid ->
      let i = rid - t.pool_first_unit in
      if i >= 0 && i < Array.length t.unit_free then t.unit_free.(i) <- true)
    units

let free_unit_count t =
  Array.fold_left (fun acc free -> if free then acc + 1 else acc) 0 t.unit_free

(* Untrusted memory access helper: the native OS only ever touches
   memory it owns (the machine would fault anything else anyway). *)
let os_owned t ~paddr =
  (Sanctorum.Sm.platform t.sm).Pf.Platform.owner_at ~paddr = Hw.Trap.domain_untrusted

let os_write t ~paddr data =
  assert (os_owned t ~paddr);
  Hw.Phys_mem.write_string (Hw.Machine.mem t.machine) ~pos:paddr data

let os_read t ~paddr ~len =
  assert (os_owned t ~paddr);
  Hw.Phys_mem.read_string (Hw.Machine.mem t.machine) ~pos:paddr ~len

(* --------------------------------------------------------------- *)
(* Enclave installation: the OS decides placement; the monitor checks. *)

let pad_page contents = contents ^ String.make (page - String.length contents) '\000'

(* The OS pools raise [Out_of_memory] when they run dry (the public
   allocators' contract); an install reports that as a result. *)
let from_pool what alloc =
  match alloc () with
  | v -> Ok v
  | exception Out_of_memory ->
      Error (Sanctorum.Api_error.Out_of_resources ("OS " ^ what ^ " exhausted"))

(* Everything after create_enclave. Granted units and loaded threads are
   recorded as they land, so [reclaim_enclave] can undo a partial
   install. *)
let load_image t ~eid (image : Sanctorum.Image.t) =
  (* Fig. 2 round trip for each unit: block (we own it), clean, grant. *)
  let ub = unit_bytes t in
  let units_needed = ((Sanctorum.Image.page_count image * page) + ub - 1) / ub in
  let* units = from_pool "memory units" (fun () -> alloc_units t ~count:units_needed) in
  Hashtbl.replace t.granted eid units;
  let rec grant_all = function
    | [] -> Ok ()
    | rid :: rest ->
        let* () =
          retry_transient (fun () ->
              Sanctorum.Sm.block_resource t.sm ~caller:Sanctorum.Sm.Os Sanctorum.Resource.Memory_resource ~rid)
        in
        let* () =
          retry_transient (fun () ->
              Sanctorum.Sm.clean_resource t.sm ~caller:Sanctorum.Sm.Os Sanctorum.Resource.Memory_resource ~rid)
        in
        let* () =
          retry_transient (fun () ->
              Sanctorum.Sm.grant_resource t.sm ~caller:Sanctorum.Sm.Os Sanctorum.Resource.Memory_resource ~rid
                ~to_:(Sanctorum.Sm.To_enclave eid))
        in
        grant_all rest
  in
  let* () = grant_all units in
  let rec tables = function
    | [] -> Ok ()
    | (vaddr, level) :: rest ->
        let* () = Sanctorum.Sm.allocate_page_table t.sm ~caller:Sanctorum.Sm.Os ~eid ~vaddr ~level in
        tables rest
  in
  let* () = tables (Sanctorum.Image.required_page_tables image) in
  let* staging =
    match t.scratch_page with
    | Some p -> Ok p
    | None ->
        let* p = from_pool "staging heap" (fun () -> alloc_staging t ~bytes:page) in
        t.scratch_page <- Some p;
        Ok p
  in
  let rec pages = function
    | [] -> Ok ()
    | (p : Sanctorum.Image.page) :: rest ->
        os_write t ~paddr:staging (pad_page p.Sanctorum.Image.contents);
        let* () =
          Sanctorum.Sm.load_page t.sm ~caller:Sanctorum.Sm.Os ~eid ~vaddr:p.Sanctorum.Image.vaddr
            ~src_paddr:staging ~r:p.Sanctorum.Image.r ~w:p.Sanctorum.Image.w ~x:p.Sanctorum.Image.x
        in
        pages rest
  in
  let* () = pages image.Sanctorum.Image.pages in
  let rec shared acc = function
    | [] -> Ok (List.rev acc)
    | (vaddr, len) :: rest ->
        let* src = from_pool "staging heap" (fun () -> alloc_staging t ~bytes:len) in
        let* () =
          Sanctorum.Sm.map_shared t.sm ~caller:Sanctorum.Sm.Os ~eid ~vaddr ~src_paddr:src ~len
        in
        shared ((vaddr, src, len) :: acc) rest
  in
  let* shared_paddrs = shared [] image.Sanctorum.Image.shared in
  let rec threads acc = function
    | [] -> Ok (List.rev acc)
    | (entry_pc, entry_sp) :: rest ->
        let* tid = from_pool "metadata" (fun () -> alloc_metadata t `Thread) in
        let* () =
          Sanctorum.Sm.load_thread t.sm ~caller:Sanctorum.Sm.Os ~eid ~tid ~entry_pc ~entry_sp
        in
        Hashtbl.replace t.thread_table eid (tid :: acc);
        threads (tid :: acc) rest
  in
  let* tids = threads [] image.Sanctorum.Image.threads in
  let* () = Sanctorum.Sm.init_enclave t.sm ~caller:Sanctorum.Sm.Os ~eid in
  Hashtbl.replace t.thread_table eid tids;
  Ok { eid; tids; shared_paddrs }

let reclaim_enclave t ~eid =
  let* () =
    match
      retry_transient (fun () ->
          Sanctorum.Sm.delete_enclave t.sm ~caller:Sanctorum.Sm.Os ~eid)
    with
    | Ok () -> Ok ()
    | Error _ when not (List.mem eid (Sanctorum.Sm.enclaves t.sm)) ->
        (* The monitor already tore the enclave down (emergency reclaim
           after a machine check). Its units are blocked and waiting for
           the cleaning below, so reclamation proceeds as usual. *)
        Ok ()
    | Error e -> Error e
  in
  let units = Option.value ~default:[] (Hashtbl.find_opt t.granted eid) in
  let rec reclaim = function
    | [] -> Ok ()
    | rid :: rest ->
        let* () =
          retry_transient (fun () ->
              Sanctorum.Sm.clean_resource t.sm ~caller:Sanctorum.Sm.Os Sanctorum.Resource.Memory_resource ~rid)
        in
        let* () =
          retry_transient (fun () ->
              Sanctorum.Sm.grant_resource t.sm ~caller:Sanctorum.Sm.Os Sanctorum.Resource.Memory_resource ~rid
                ~to_:Sanctorum.Sm.To_os)
        in
        reclaim rest
  in
  let* () = reclaim units in
  Hashtbl.remove t.granted eid;
  free_units t units;
  (* Recycle metadata: the dead enclave's threads became available. *)
  List.iter
    (fun tid ->
      match Sanctorum.Sm.delete_thread t.sm ~caller:Sanctorum.Sm.Os ~tid with
      | Ok () -> release_metadata t `Thread tid
      | Error _ -> ())
    (Option.value ~default:[] (Hashtbl.find_opt t.thread_table eid));
  Hashtbl.remove t.thread_table eid;
  release_metadata t `Enclave eid;
  Ok ()

let install_enclave t (image : Sanctorum.Image.t) =
  let* eid = from_pool "metadata" (fun () -> alloc_metadata t `Enclave) in
  let* () =
    Sanctorum.Sm.create_enclave t.sm ~caller:Sanctorum.Sm.Os ~eid ~evbase:image.Sanctorum.Image.evbase
      ~evsize:image.Sanctorum.Image.evsize ~mailbox_slots:image.Sanctorum.Image.mailbox_slots ()
  in
  match load_image t ~eid image with
  | Error (Sanctorum.Api_error.Out_of_resources _) as e ->
      (* No partial install outlives a shortage: tear the half-built
         enclave down like any other, giving back its units, threads
         and metadata slot. *)
      let* () = reclaim_enclave t ~eid in
      e
  | r -> r

(* --------------------------------------------------------------- *)
(* Scheduling *)

(* The delegated event that ended a run, if any arrived since the list
   was [seen]: a run only conses onto the list, so it holds a new event
   exactly when it is no longer physically [seen] — O(1) however long
   the list has grown since it was last cleared. *)
let newest_event t ~seen =
  match t.events with e :: _ when t.events != seen -> Some e | _ -> None

let classify_outcome t ~seen ~tid ~core =
  let newest = newest_event t ~seen in
  if (Hw.Machine.core t.machine core).Hw.Machine.quarantined then Killed
  else
  match Sanctorum.Sm.thread_info t.sm ~tid with
  | Some { Sanctorum.Sm.i_phase = `Running _; i_owner = Some _; _ } ->
      Fuel_exhausted
  | Some { Sanctorum.Sm.i_has_aex = true; _ } -> begin
      (* An AEX happened: the delegated event says why. *)
      match newest with
      | Some (Hw.Trap.Interrupt _) -> Preempted
      | Some (Hw.Trap.Exception _ as e) -> Faulted e
      | None -> Preempted
    end
  | Some _ | None -> Exited

(* A dropped preemption tick leaves the thread running when the fuel
   budget runs dry ([Fuel_exhausted] with the core still inside the
   enclave). The OS cannot [enter_enclave] again — the thread never
   exited — so it re-arms the quantum and lets the core continue. *)
let run_enclave t ~eid ~tid ~core ~fuel ?quantum () =
  let c = Hw.Machine.core t.machine core in
  let seen = t.events in
  let* () =
    match Sanctorum.Sm.thread_info t.sm ~tid with
    | Some { Sanctorum.Sm.i_phase = `Running rcore; i_owner = Some reid; _ }
      when reid = eid && rcore = core ->
        Ok ()
    | Some _ | None ->
        retry_transient (fun () ->
            Sanctorum.Sm.enter_enclave t.sm ~caller:Sanctorum.Sm.Os ~eid ~tid ~core)
  in
  (match quantum with
  | Some q -> c.Hw.Machine.timer_cmp <- Some (c.Hw.Machine.cycles + q)
  | None -> ());
  let _retired = Hw.Machine.run t.machine ~core ~fuel in
  c.Hw.Machine.timer_cmp <- None;
  Ok (classify_outcome t ~seen ~tid ~core)

(* --------------------------------------------------------------- *)
(* Fair multi-enclave scheduling: a round-robin run queue dispatching
   one quantum per live core per round. The scheduler owns only the
   *decision* of who runs where — every entry still goes through the
   monitor's enter checks, so a scheduling mistake surfaces as an API
   error in the slot, never as a hole.

   A thread whose fuel ran dry while still [Running] (a lost timer
   tick) is pinned to its core: only that core can continue it, so the
   next round runs it there. Everything else rotates freely. *)

module Scheduler = struct
  type job = {
    j_eid : int;
    j_tid : int;
    mutable j_errors : int; (* consecutive dispatch errors *)
  }

  type slot = {
    s_core : int;
    s_eid : int;
    s_tid : int;
    s_cycles : int; (* simulated cycles this quantum consumed *)
    s_instret : int; (* instructions retired this quantum *)
    s_outcome : (run_outcome, Sanctorum.Api_error.t) result;
  }

  type sched = {
    s_os : t;
    s_cores : int list;
    s_queue : job Queue.t;
    mutable s_pinned : (int * job) list; (* core -> job, small *)
  }

  (* A job erroring this many times in a row is dropped from the
     queue — a livelocked entry must not wedge the whole engine. *)
  let max_errors = 3

  let create os ~cores =
    if cores = [] then invalid_arg "Os.Scheduler.create: no cores";
    { s_os = os; s_cores = cores; s_queue = Queue.create (); s_pinned = [] }

  let enqueue sch ~eid ~tid =
    Queue.add { j_eid = eid; j_tid = tid; j_errors = 0 } sch.s_queue

  let pending sch = Queue.length sch.s_queue + List.length sch.s_pinned

  (* One scheduler round: at most one quantum per non-quarantined
     core. Returns the dispatched slots in core order; [Exited],
     [Faulted] and [Killed] jobs leave the queue (the caller decides
     whether to re-[enqueue], reclaim, or park them). *)
  let round sch ~fuel ~quantum =
    let os = sch.s_os in
    let slots = ref [] in
    List.iter
      (fun core ->
        let c = Hw.Machine.core os.machine core in
        if not c.Hw.Machine.quarantined then begin
          let job =
            match List.assoc_opt core sch.s_pinned with
            | Some j ->
                sch.s_pinned <- List.remove_assoc core sch.s_pinned;
                Some j
            | None -> Queue.take_opt sch.s_queue
          in
          match job with
          | None -> ()
          | Some j ->
              let cycles0 = c.Hw.Machine.cycles
              and instret0 = c.Hw.Machine.instret in
              let r =
                run_enclave os ~eid:j.j_eid ~tid:j.j_tid ~core ~fuel ~quantum ()
              in
              (match r with
              | Ok Preempted ->
                  j.j_errors <- 0;
                  Queue.add j sch.s_queue
              | Ok Fuel_exhausted ->
                  (* still Running in there: only this core can go on *)
                  j.j_errors <- 0;
                  sch.s_pinned <- (core, j) :: sch.s_pinned
              | Ok (Exited | Faulted _ | Killed) -> ()
              | Error _ ->
                  j.j_errors <- j.j_errors + 1;
                  if j.j_errors < max_errors then Queue.add j sch.s_queue);
              slots :=
                {
                  s_core = core;
                  s_eid = j.j_eid;
                  s_tid = j.j_tid;
                  s_cycles = c.Hw.Machine.cycles - cycles0;
                  s_instret = c.Hw.Machine.instret - instret0;
                  s_outcome = r;
                }
                :: !slots
        end)
      sch.s_cores;
    List.rev !slots

  (* Drive every pinned (still-Running) thread to an architectural
     stop, so reclamation can proceed: a Running thread blocks
     [delete_enclave]. Bounded — a thread that will not stop within
     the budget is left pinned and reported. *)
  let drain sch ~fuel ~quantum =
    let budget = ref 64 in
    while sch.s_pinned <> [] && !budget > 0 do
      decr budget;
      List.iter
        (fun (core, j) ->
          match
            run_enclave sch.s_os ~eid:j.j_eid ~tid:j.j_tid ~core ~fuel
              ~quantum ()
          with
          | Ok Fuel_exhausted -> ()
          | Ok _ | Error _ ->
              sch.s_pinned <- List.remove_assoc core sch.s_pinned)
        sch.s_pinned
    done;
    sch.s_pinned = []
end

(* --------------------------------------------------------------- *)
(* Untrusted user programs (the baseline protection domain) *)

let untrusted_code_vaddr = 0x400000

let run_untrusted_program t ~code ~core ~fuel ?(data_pages = 1) () =
  let c = Hw.Machine.core t.machine core in
  let mem = Hw.Machine.mem t.machine in
  let encoded = Hw.Isa.encode_program code in
  if String.length encoded > page then
    invalid_arg "Os.run_untrusted_program: program exceeds one page";
  let root = alloc_staging t ~bytes:page / page in
  Hw.Phys_mem.zero_range mem ~pos:(Hw.Phys_mem.page_base root) ~len:page;
  let alloc_table () =
    let ppn = alloc_staging t ~bytes:page / page in
    Hw.Phys_mem.zero_range mem ~pos:(Hw.Phys_mem.page_base ppn) ~len:page;
    ppn
  in
  let map_one ~vaddr ~paddr ~x ~w =
    Hw.Page_table.map mem ~root_ppn:root ~vaddr ~ppn:(paddr / page)
      ~perms:Hw.Page_table.{ r = true; w; x; u = true }
      ~alloc_table
  in
  let code_paddr = alloc_staging t ~bytes:page in
  os_write t ~paddr:code_paddr (pad_page encoded);
  map_one ~vaddr:untrusted_code_vaddr ~paddr:code_paddr ~x:true ~w:false;
  for i = 0 to data_pages - 1 do
    let p = alloc_staging t ~bytes:page in
    map_one
      ~vaddr:(untrusted_code_vaddr + ((i + 1) * page))
      ~paddr:p ~x:false ~w:true
  done;
  let seen = t.events in
  Hw.Machine.reset_core_state c;
  (* Installing a new address space invalidates prior translations. *)
  Hw.Tlb.flush c.Hw.Machine.tlb;
  c.Hw.Machine.satp_root <- Some root;
  c.Hw.Machine.pc <- Int64.of_int untrusted_code_vaddr;
  Hw.Machine.write_reg c Hw.Isa.sp
    (Int64.of_int (untrusted_code_vaddr + ((data_pages + 1) * page) - 16));
  c.Hw.Machine.halted <- false;
  let _ = Hw.Machine.run t.machine ~core ~fuel in
  let a0 = Hw.Machine.read_reg c Hw.Isa.a0 in
  let outcome =
    if not c.Hw.Machine.halted then Fuel_exhausted
    else begin
      match newest_event t ~seen with
      | Some (Hw.Trap.Exception Hw.Trap.Ecall_user) -> Exited
      | Some (Hw.Trap.Interrupt _) -> Preempted
      | Some e -> Faulted e
      | None -> Exited
    end
  in
  c.Hw.Machine.satp_root <- None;
  (outcome, a0)
