module Hw = Sanctorum_hw
module Pf = Sanctorum_platform
module Crypto = Sanctorum_crypto
module Tel = Sanctorum_telemetry

type caller = Os | Enclave_caller of int
type resource_target = To_os | To_enclave of int

type field =
  | Field_public_key
  | Field_certificates
  | Field_sm_measurement
  | Field_signing_measurement

type enclave_lifecycle = Loading | Initialized

type thread_phase = T_available | T_assigned | T_running of int (* core *)

type thread = {
  tid : int;
  mutable t_owner : int option; (* eid *)
  mutable t_offered : int option; (* eid pending accept *)
  mutable phase : thread_phase;
  mutable entry_pc : int64;
  mutable entry_sp : int64;
  mutable aex_state : int64 array option; (* 32 regs then pc *)
  mutable t_lock : bool;
}

type enclave = {
  eid : int;
  domain : Hw.Trap.domain;
  evbase : int;
  evsize : int;
  mutable lifecycle : enclave_lifecycle;
  mutable meas_ctx : Measurement.t option;
  mutable measurement : string option;
  mutable root_ppn : int option;
  mutable free_pages : int list; (* ascending ppns granted and not yet used *)
  mutable last_alloc_ppn : int;
  vmap : (int, int) Hashtbl.t; (* vpn -> ppn *)
  mailboxes : Mailbox.t;
  mutable threads : int list;
  mutable fault_handler : int64 option;
  mutable e_lock : bool;
}

type t = {
  pf : Pf.Platform.t;
  machine : Hw.Machine.t;
  identity : Boot.identity;
  signing_measurement : string;
  resources : Resource.t;
  unit_bytes : int;
  enclaves : (int, enclave) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  slots : (int, int) Hashtbl.t; (* metadata addr -> length *)
  domain_of_enclave : (Hw.Trap.domain, int) Hashtbl.t; (* domain -> eid *)
  mutable next_domain : Hw.Trap.domain;
  mutable os_handler : Hw.Machine.core -> Hw.Trap.cause -> unit;
  mutable resource_lock : bool;
  mutable sink : Tel.Sink.t;
  mutable post_api_hook : (api:string -> unit) option;
  meas_cache : Measurement.Cache.cache;
      (* measure-once/bind-many: repeated installs of an identical image
         skip the SHA3 sweep at init_enclave *)
}

let binary_image =
  (* Stands in for the monitor's C binary; its hash is the SM
     measurement covered by attestations. *)
  String.concat "\n"
    [ "sanctorum security monitor"; "version 1.0"; "model: ocaml reproduction" ]

let enclave_slot_bytes = 2048
let thread_slot_bytes = 512
let sm_image_bytes = 64 * 1024
let page = Hw.Phys_mem.page_size

let ( let* ) = Result.bind
let ok = Ok ()
let err_arg m = Error (Api_error.Illegal_argument m)
let err_state m = Error (Api_error.Invalid_state m)

let platform t = t.pf
let machine t = t.machine
let identity t = t.identity
let metadata_base _ = sm_image_bytes
let metadata_limit _ = Pf.Platform.sm_memory_bytes
let memory_units t = Resource.count t.resources Resource.Memory_resource
let memory_unit_bytes t = t.unit_bytes
let set_os_trap_handler t f = t.os_handler <- f

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing used below. API events carry cycle timestamps
   from the machine (host-context actions run natively, so [core] is -1
   unless a specific core is known). Every payload is built behind a
   [Tel.Sink.enabled] test, so with the default null sink an
   instrumented point costs that test and nothing more. *)

let principal = function
  | Os -> Tel.Event.Os
  | Enclave_caller eid -> Tel.Event.Enclave eid

let sm_now t = Hw.Machine.now t.machine

let emit t ?(core = -1) payload =
  Tel.Sink.emit t.sink ~core ~cycles:(sm_now t) payload

(* ------------------------------------------------------------------ *)
(* Locking: every API call is a transaction under fine-grained locks;
   a held lock aborts the call with [Concurrent_call] (§V-A). Each lock
   is a flag in the structure it guards; the lock-discipline analyzer
   knows it by its [Tel.Event.lock] id. *)

(* Take ([held = true]) or release one lock. *)
let set_lock t lock set held =
  set held;
  if Tel.Sink.enabled t.sink then
    emit t
      (if held then Tel.Event.Lock_acquired { lock }
       else Tel.Event.Lock_released { lock })

let note_write t ~lock ~field =
  if Tel.Sink.enabled t.sink then emit t (Tel.Event.Guarded_write { lock; field })

let hold t lock set f =
  set_lock t lock set true;
  Fun.protect ~finally:(fun () -> set_lock t lock set false) f

let with_flag t lock busy set f =
  if busy then Error Api_error.Concurrent_call else hold t lock set f

let with_enclave_lock t e f =
  with_flag t (Tel.Event.Enclave_lock e.eid) e.e_lock (fun v -> e.e_lock <- v) f

let with_thread_lock t th f =
  with_flag t (Tel.Event.Thread_lock th.tid) th.t_lock (fun v -> th.t_lock <- v) f

let with_resource_lock t f =
  with_flag t Tel.Event.Resource_lock t.resource_lock
    (fun v -> t.resource_lock <- v)
    f

(* Every clear of a thread's saved AEX dump funnels through here, so
   the write is always visible to the lock-discipline analyzer as a
   [Guarded_write] under the thread's lock — an unguarded clear would
   blind it to exactly the kind of lost-update the discipline exists
   to catch. Callers inside [with_thread_lock] pass [~locked:true];
   the rest ([delete_enclave] under the enclave lock, the emergency
   reclaim paths) take the lock for the duration of the write. The
   take is forced rather than [with_flag]-checked: the emergency
   paths may find the bit stuck set by a dead holder, and the
   resulting acquire-while-held event is precisely what the analyzer
   should see in that case. *)
let clear_aex_state t th ~locked =
  let lock = Tel.Event.Thread_lock th.tid in
  let write () =
    th.aex_state <- None;
    note_write t ~lock ~field:"aex_state"
  in
  if locked then write () else hold t lock (fun v -> th.t_lock <- v) write

let try_lock_enclave t ~eid =
  match Hashtbl.find_opt t.enclaves eid with
  | Some e when not e.e_lock ->
      set_lock t (Tel.Event.Enclave_lock eid) (fun v -> e.e_lock <- v) true;
      true
  | Some _ | None -> false

let unlock_enclave t ~eid =
  match Hashtbl.find_opt t.enclaves eid with
  | Some e when e.e_lock ->
      set_lock t (Tel.Event.Enclave_lock eid) (fun v -> e.e_lock <- v) false
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Lookups *)

let find_enclave t eid =
  match Hashtbl.find_opt t.enclaves eid with
  | Some e -> Ok e
  | None -> err_arg "unknown enclave id"

let find_thread t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some th -> Ok th
  | None -> err_arg "unknown thread id"

let enclave_of_domain t d = Hashtbl.find_opt t.domain_of_enclave d

let caller_domain t = function
  | Os -> Ok Hw.Trap.domain_untrusted
  | Enclave_caller eid ->
      let* e = find_enclave t eid in
      Ok e.domain

let require_os = function
  | Os -> ok
  | Enclave_caller _ -> Error Api_error.Unauthorized

let require_enclave t = function
  | Os -> Error Api_error.Unauthorized
  | Enclave_caller eid -> find_enclave t eid

let enclaves t =
  Hashtbl.fold (fun eid _ acc -> eid :: acc) t.enclaves [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* API-call tracing. Every public entry point is defined as
   [traced t ~caller name @@ fun () -> ...], so each call, including
   those arriving through the ecall funnel below, lands in the audit
   log. *)

let run_post_api_hook t api =
  match t.post_api_hook with None -> () | Some hook -> hook ~api

let set_post_api_hook t hook = t.post_api_hook <- hook

(* Fail-closed guard: no monitor API entry may raise into untrusted
   code. A call that trips an unexpected exception — metadata corrupted
   by a hardware fault, a structure in a state no validation predicted —
   aborts with [Internal_fault] instead of unwinding through the ABI.
   [with_flag] releases its lock via [Fun.protect] before the exception
   reaches this guard, so lock state stays consistent. *)
let guard_api f =
  try f ()
  with exn -> Error (Api_error.Internal_fault (Printexc.to_string exn))

(* With the default null sink [traced] is one boolean test around the
   wrapped call, plus the post-API hook test. With a recording sink it
   emits the [Sm_api] decision, runs the hook and then, if the call
   succeeded, [on_ok], which emits the call's lifecycle event. *)
let traced t ~caller ?on_ok api f =
  if not (Tel.Sink.enabled t.sink) then begin
    let result = guard_api f in
    run_post_api_hook t api;
    result
  end
  else begin
    let t0 = sm_now t in
    let result = guard_api f in
    let t1 = sm_now t in
    let latency = t1 - t0 in
    Tel.Sink.incr_counter t.sink ("sm.api.calls." ^ api);
    let outcome =
      match result with
      | Ok _ -> Tel.Event.Accepted
      | Error e ->
          Tel.Sink.incr_counter t.sink ("sm.api.rejected." ^ api);
          Tel.Event.Rejected (Api_error.to_string e)
    in
    Tel.Sink.observe t.sink "sm.api.latency" latency;
    Tel.Sink.emit t.sink ~core:(-1) ~cycles:t1
      (Tel.Event.Sm_api { api; caller = principal caller; outcome; latency });
    run_post_api_hook t api;
    (match (result, on_ok) with Ok _, Some k -> k () | _ -> ());
    result
  end

(* ------------------------------------------------------------------ *)
(* Generic resources (Fig. 2) *)

let unit_range t rid = (rid * t.unit_bytes, (rid + 1) * t.unit_bytes)

let resource_state t kind ~rid = Resource.state t.resources kind ~rid
let resource_version t = Resource.version t.resources

let resource_kind_label = function
  | Resource.Core_resource -> "core"
  | Resource.Memory_resource -> "memory"

let sync_memory_owner t ~rid domain =
  let lo, hi = unit_range t rid in
  match t.pf.Pf.Platform.assign_range ~lo ~hi domain with
  | Ok () -> ok
  | Error m -> err_arg m

let block_resource t ~caller kind ~rid =
  traced t ~caller "block_resource" @@ fun () ->
  with_resource_lock t (fun () ->
      let* by = caller_domain t caller in
      Resource.block t.resources kind ~rid ~by)

let clean_resource t ~caller kind ~rid =
  traced t ~caller "clean_resource"
    ~on_ok:(fun () ->
      emit t (Tel.Event.Region_freed { kind = resource_kind_label kind; rid }))
  @@ fun () ->
  with_resource_lock t (fun () ->
      let* () = require_os caller in
      let* _prev = Resource.clean t.resources kind ~rid in
      match kind with
      | Resource.Memory_resource ->
          let lo, hi = unit_range t rid in
          t.pf.Pf.Platform.clean_range ~lo ~hi;
          sync_memory_owner t ~rid Hw.Trap.domain_untrusted
      | Resource.Core_resource ->
          Hw.Machine.reset_core_state (Hw.Machine.core t.machine rid);
          ok)

(* Completing a memory grant: hardware ownership flips and, for a
   loading enclave, the pages join its load pool. *)
let finish_memory_grant t ~rid e =
  let* () = sync_memory_owner t ~rid e.domain in
  let lo, hi = unit_range t rid in
  let pages = List.init ((hi - lo) / page) (fun i -> (lo / page) + i) in
  e.free_pages <- List.merge Int.compare e.free_pages pages;
  ok

let grant_resource t ~caller kind ~rid ~to_ =
  traced t ~caller "grant_resource"
    ~on_ok:(fun () ->
      let owner =
        match to_ with
        | To_os -> Tel.Event.Os
        | To_enclave eid -> Tel.Event.Enclave eid
      in
      emit t
        (Tel.Event.Region_granted { kind = resource_kind_label kind; rid; owner }))
  @@ fun () ->
  with_resource_lock t (fun () ->
      let* () = require_os caller in
      match (kind, to_) with
      | Resource.Core_resource, To_os ->
          Resource.grant t.resources kind ~rid ~to_:Hw.Trap.domain_untrusted
            ~auto_accept:true
      | Resource.Core_resource, To_enclave eid ->
          let* e = find_enclave t eid in
          Resource.grant t.resources kind ~rid ~to_:e.domain ~auto_accept:false
      | Resource.Memory_resource, To_os ->
          let* () =
            Resource.grant t.resources kind ~rid ~to_:Hw.Trap.domain_untrusted
              ~auto_accept:true
          in
          sync_memory_owner t ~rid Hw.Trap.domain_untrusted
      | Resource.Memory_resource, To_enclave eid ->
          let* e = find_enclave t eid in
          (* While loading, the monitor performs all operations on the
             enclave's behalf, so the grant completes immediately. *)
          let auto = e.lifecycle = Loading in
          let* () =
            Resource.grant t.resources kind ~rid ~to_:e.domain ~auto_accept:auto
          in
          if auto then finish_memory_grant t ~rid e else ok)

let accept_resource t ~caller kind ~rid =
  traced t ~caller "accept_resource" @@ fun () ->
  with_resource_lock t (fun () ->
      let* e = require_enclave t caller in
      let* () = Resource.accept t.resources kind ~rid ~by:e.domain in
      match kind with
      | Resource.Memory_resource -> finish_memory_grant t ~rid e
      | Resource.Core_resource -> ok)

(* ------------------------------------------------------------------ *)
(* Metadata slots: the OS picks addresses inside the monitor's metadata
   area; the monitor enforces containment and non-overlap (§V-B). *)

let claim_slot t ~addr ~len =
  let base = metadata_base t and limit = metadata_limit t in
  if addr < base || addr + len > limit then
    err_arg "metadata slot outside the monitor's metadata area"
  else if addr mod 8 <> 0 then err_arg "metadata slot must be 8-aligned"
  else begin
    let overlaps =
      Hashtbl.fold
        (fun a l acc -> acc || (addr < a + l && a < addr + len))
        t.slots false
    in
    if overlaps then err_state "metadata slot overlaps an existing structure"
    else begin
      Hashtbl.replace t.slots addr len;
      ok
    end
  end

let release_slot t ~addr = Hashtbl.remove t.slots addr

(* ------------------------------------------------------------------ *)
(* Page-table plumbing. The monitor has M-mode authority: it reads and
   writes enclave page tables directly in physical memory. *)

let mem t = Hw.Machine.mem t.machine

let pt_perms_none = Hw.Page_table.{ r = false; w = false; x = false; u = false }

(* Where [table_ppn] holds [vaddr]'s entry at [level]. *)
let pte_addr ~table_ppn ~vaddr ~level =
  Hw.Phys_mem.page_base table_ppn + (8 * ((vaddr lsr (12 + (9 * level))) land 511))

(* Descend from the root to the table that holds [vaddr]'s entry at
   [level]; every intermediate node must already exist. *)
let find_table t e ~vaddr ~level =
  match e.root_ppn with
  | None -> err_state "enclave has no root page table"
  | Some root ->
      let rec go ppn l =
        if l = level then Ok ppn
        else begin
          let slot = pte_addr ~table_ppn:ppn ~vaddr ~level:l in
          match Hw.Page_table.decode_pte (Hw.Phys_mem.read_u64 (mem t) slot) with
          | Error () -> err_state "missing intermediate page table"
          | Ok (_, _, true) -> err_state "superpage in the way"
          | Ok (next, _, false) -> go next (l - 1)
        end
      in
      go root (Hw.Page_table.levels - 1)

(* Probe that a destination PTE slot is free and return its address,
   without writing it. Every destination is validated this way before
   anything changes: the [alloc_enclave_page] pop mutates [free_pages]
   and [last_alloc_ppn], and a PTE write is a mapping, so a failure
   after either would leave a rejected call's effects behind and break
   the API's transaction guarantee. *)
let free_pte_slot t ~table_ppn ~vaddr ~level =
  let slot = pte_addr ~table_ppn ~vaddr ~level in
  match Hw.Page_table.decode_pte (Hw.Phys_mem.read_u64 (mem t) slot) with
  | Ok _ -> err_state "page-table entry already present"
  | Error () -> Ok slot

(* Pop the enclave's next physical page, enforcing the ascending-order
   rule that keeps the measurement descriptive (§VI-A). *)
let alloc_enclave_page e =
  match e.free_pages with
  | [] -> Error (Api_error.Out_of_resources "enclave has no free pages")
  | ppn :: rest ->
      if ppn <= e.last_alloc_ppn then
        err_state "physical pages must be loaded in ascending order"
      else begin
        e.free_pages <- rest;
        e.last_alloc_ppn <- ppn;
        Ok ppn
      end

let in_evrange e ~vaddr ~len =
  vaddr >= e.evbase && vaddr + len <= e.evbase + e.evsize

(* ------------------------------------------------------------------ *)
(* Enclave lifecycle (Fig. 3) *)

let max_vaddr = 1 lsl Hw.Page_table.vpn_bits

let create_enclave t ~caller ~eid ~evbase ~evsize ?(mailbox_slots = 4) () =
  traced t ~caller "create_enclave"
    ~on_ok:(fun () -> emit t (Tel.Event.Enclave_created { eid }))
  @@ fun () ->
  let* () = require_os caller in
  if Hashtbl.mem t.enclaves eid then err_state "enclave id already in use"
  else if evbase mod page <> 0 || evsize mod page <> 0 || evsize <= 0 then
    err_arg "evrange must be page-aligned and non-empty"
  else if evbase < 0 || evbase + evsize > max_vaddr then
    err_arg "evrange outside the virtual address space"
  else if mailbox_slots <= 0 || mailbox_slots > 64 then
    err_arg "mailbox count out of range"
  else begin
    let* () = claim_slot t ~addr:eid ~len:enclave_slot_bytes in
    let meas = Measurement.start () in
    Measurement.extend_create meas ~evbase ~evsize ~mailbox_count:mailbox_slots;
    let domain = t.next_domain in
    t.next_domain <- t.next_domain + 1;
    let e =
      {
        eid;
        domain;
        evbase;
        evsize;
        lifecycle = Loading;
        meas_ctx = Some meas;
        measurement = None;
        root_ppn = None;
        free_pages = [];
        last_alloc_ppn = -1;
        vmap = Hashtbl.create 64;
        mailboxes = Mailbox.create ~slots:mailbox_slots;
        threads = [];
        fault_handler = None;
        e_lock = false;
      }
    in
    Hashtbl.replace t.enclaves eid e;
    Hashtbl.replace t.domain_of_enclave domain eid;
    ok
  end

let require_loading e =
  match e.lifecycle with
  | Loading -> ok
  | Initialized -> err_state "enclave is already initialized"

let require_initialized e =
  match e.lifecycle with
  | Initialized -> ok
  | Loading -> err_state "enclave is still loading"

let extend_measurement e f =
  match e.meas_ctx with
  | Some ctx ->
      f ctx;
      ok
  | None -> err_state "measurement already finalized"

let allocate_page_table t ~caller ~eid ~vaddr ~level =
  traced t ~caller "allocate_page_table" @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let* () = require_loading e in
      if level < 0 || level >= Hw.Page_table.levels then
        err_arg "bad page-table level"
      else if vaddr mod page <> 0 || vaddr < 0 || vaddr >= max_vaddr then
        err_arg "bad page-table vaddr"
      else if Hashtbl.length e.vmap > 0 then
        err_state "page tables must be initialized before any data"
      else begin
        (* resolve and validate the parent slot before allocating *)
        let* parent_slot =
          if level = Hw.Page_table.levels - 1 then begin
            match e.root_ppn with
            | Some _ -> err_state "root page table already allocated"
            | None -> Ok None
          end
          else
            let* parent = find_table t e ~vaddr ~level:(level + 1) in
            let* slot =
              free_pte_slot t ~table_ppn:parent ~vaddr ~level:(level + 1)
            in
            Ok (Some slot)
        in
        let* ppn = alloc_enclave_page e in
        Hw.Phys_mem.zero_range (mem t) ~pos:(Hw.Phys_mem.page_base ppn) ~len:page;
        (match parent_slot with
        | None -> e.root_ppn <- Some ppn
        | Some slot ->
            Hw.Phys_mem.write_u64 (mem t) slot
              (Hw.Page_table.encode_pte ~ppn ~perms:pt_perms_none ~valid:true));
        extend_measurement e (fun ctx ->
            Measurement.extend_page_table ctx ~vaddr ~level)
      end)

let load_page t ~caller ~eid ~vaddr ~src_paddr ~r ~w ~x =
  traced t ~caller "load_page" @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let* () = require_loading e in
      if vaddr mod page <> 0 || not (in_evrange e ~vaddr ~len:page) then
        err_arg "load_page: vaddr must be a page inside evrange"
      else if src_paddr mod page <> 0 then err_arg "load_page: unaligned source"
      else if src_paddr < 0 || src_paddr + page > Hw.Phys_mem.size (mem t) then
        err_arg "load_page: source outside physical memory"
      else if
        t.pf.Pf.Platform.owner_at ~paddr:src_paddr <> Hw.Trap.domain_untrusted
      then err_arg "load_page: source must be untrusted memory"
      else if Hashtbl.mem e.vmap (vaddr / page) then
        err_state "load_page: virtual page already mapped (aliasing forbidden)"
      else begin
        (* resolve and validate the leaf slot before allocating *)
        let* table = find_table t e ~vaddr ~level:0 in
        let* slot = free_pte_slot t ~table_ppn:table ~vaddr ~level:0 in
        let* ppn = alloc_enclave_page e in
        let contents =
          Hw.Phys_mem.read_string (mem t) ~pos:src_paddr ~len:page
        in
        Hw.Phys_mem.write_string (mem t) ~pos:(Hw.Phys_mem.page_base ppn) contents;
        let perms = Hw.Page_table.{ r; w; x; u = true } in
        Hw.Phys_mem.write_u64 (mem t) slot
          (Hw.Page_table.encode_pte ~ppn ~perms ~valid:true);
        Hashtbl.replace e.vmap (vaddr / page) ppn;
        extend_measurement e (fun ctx ->
            Measurement.extend_page ctx ~vaddr ~r ~w ~x ~contents)
      end)

let map_shared t ~caller ~eid ~vaddr ~src_paddr ~len =
  traced t ~caller "map_shared" @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let* () = require_loading e in
      if
        vaddr mod page <> 0 || src_paddr mod page <> 0 || len <= 0
        || len mod page <> 0
      then err_arg "map_shared: page alignment required"
      else if vaddr < 0 || vaddr + len > max_vaddr then
        err_arg "map_shared: outside the virtual address space"
      else if src_paddr < 0 || src_paddr + len > Hw.Phys_mem.size (mem t) then
        err_arg "map_shared: source outside physical memory"
      else if vaddr + len > e.evbase && e.evbase + e.evsize > vaddr then
        err_arg "map_shared: window overlaps evrange"
      else begin
        let pages_n = len / page in
        let rec check_source i =
          if i = pages_n then ok
          else if
            t.pf.Pf.Platform.owner_at ~paddr:(src_paddr + (i * page))
            <> Hw.Trap.domain_untrusted
          then err_arg "map_shared: source must be untrusted memory"
          else check_source (i + 1)
        in
        let* () = check_source 0 in
        (* resolve and validate every leaf slot before writing any *)
        let rec resolve i acc =
          if i = pages_n then Ok (List.rev acc)
          else begin
            let va = vaddr + (i * page) in
            let* table = find_table t e ~vaddr:va ~level:0 in
            let* slot = free_pte_slot t ~table_ppn:table ~vaddr:va ~level:0 in
            resolve (i + 1) (slot :: acc)
          end
        in
        let* slots = resolve 0 [] in
        let perms = Hw.Page_table.{ r = true; w = true; x = false; u = true } in
        List.iteri
          (fun i slot ->
            Hw.Phys_mem.write_u64 (mem t) slot
              (Hw.Page_table.encode_pte ~ppn:((src_paddr / page) + i) ~perms
                 ~valid:true))
          slots;
        extend_measurement e (fun ctx -> Measurement.extend_shared ctx ~vaddr ~len)
      end)

let load_thread t ~caller ~eid ~tid ~entry_pc ~entry_sp =
  traced t ~caller "load_thread" @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let* () = require_loading e in
      if Hashtbl.mem t.threads tid then err_state "thread id already in use"
      else begin
        let* () = claim_slot t ~addr:tid ~len:thread_slot_bytes in
        let th =
          {
            tid;
            t_owner = Some eid;
            t_offered = None;
            phase = T_assigned;
            entry_pc;
            entry_sp;
            aex_state = None;
            t_lock = false;
          }
        in
        Hashtbl.replace t.threads tid th;
        e.threads <- tid :: e.threads;
        extend_measurement e (fun ctx ->
            Measurement.extend_thread ctx ~entry_pc ~entry_sp)
      end)

let init_enclave t ~caller ~eid =
  traced t ~caller "init_enclave"
    ~on_ok:(fun () -> emit t (Tel.Event.Enclave_initialized { eid }))
  @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let* () = require_loading e in
      match e.root_ppn with
      | None -> err_state "init_enclave: no page tables"
      | Some _ -> begin
          match e.meas_ctx with
          | None -> err_state "measurement already finalized"
          | Some ctx ->
              note_write t ~lock:(Tel.Event.Enclave_lock eid) ~field:"lifecycle";
              let hits0 = Measurement.Cache.hits t.meas_cache in
              e.measurement <-
                Some (Measurement.finalize ~cache:t.meas_cache ctx);
              e.meas_ctx <- None;
              if Tel.Sink.enabled t.sink then
                Tel.Sink.incr_counter t.sink
                  (if Measurement.Cache.hits t.meas_cache > hits0 then
                     "measurement.cache.hit"
                   else "measurement.cache.miss");
              e.lifecycle <- Initialized;
              ok
        end)

(* The one enclave teardown, for [delete_enclave] and for the forced
   reclaim of an enclave the monitor can no longer trust: block every
   memory unit the enclave owns (the OS must clean them before
   re-allocation, Fig. 2 / Fig. 3), detach its threads, wipe its
   mailboxes and release its metadata. *)
let teardown t e =
  List.iter
    (fun rid ->
      ignore
        (Resource.block t.resources Resource.Memory_resource ~rid
           ~by:Hw.Trap.domain_sm))
    (Resource.units_owned_by t.resources Resource.Memory_resource e.domain);
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.threads tid with
      | Some th ->
          th.t_owner <- None;
          th.t_offered <- None;
          th.phase <- T_available;
          clear_aex_state t th ~locked:false;
          th.entry_pc <- 0L;
          th.entry_sp <- 0L
      | None -> ())
    e.threads;
  Mailbox.wipe e.mailboxes;
  Hashtbl.remove t.enclaves e.eid;
  Hashtbl.remove t.domain_of_enclave e.domain;
  release_slot t ~addr:e.eid

let delete_enclave t ~caller ~eid =
  traced t ~caller "delete_enclave"
    ~on_ok:(fun () -> emit t (Tel.Event.Enclave_destroyed { eid }))
  @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let busy =
        List.exists
          (fun tid ->
            match Hashtbl.find_opt t.threads tid with
            | Some { phase = T_running _; _ } -> true
            | Some _ | None -> false)
          e.threads
      in
      if busy then err_state "delete_enclave: a thread is still scheduled"
      else begin
        teardown t e;
        ok
      end)

let enclave_measurement t ~eid =
  let* e = find_enclave t eid in
  match e.measurement with
  | Some m -> Ok m
  | None -> err_state "enclave not yet initialized"

let enclave_domain t ~eid =
  let* e = find_enclave t eid in
  Ok e.domain

(* ------------------------------------------------------------------ *)
(* Threads (Fig. 4) *)

let assign_thread t ~caller ~eid ~tid =
  traced t ~caller "assign_thread" @@ fun () ->
  let* () = require_os caller in
  let* _e = find_enclave t eid in
  let* th = find_thread t tid in
  with_thread_lock t th (fun () ->
      match th.phase with
      | T_available ->
          note_write t ~lock:(Tel.Event.Thread_lock tid) ~field:"t_offered";
          th.t_offered <- Some eid;
          ok
      | T_assigned | T_running _ -> err_state "assign_thread: thread is not available")

let accept_thread t ~caller ~tid ?(entry_pc = 0L) ?(entry_sp = 0L) () =
  traced t ~caller "accept_thread" @@ fun () ->
  let* e = require_enclave t caller in
  let* th = find_thread t tid in
  with_thread_lock t th (fun () ->
      match th.t_offered with
      | Some eid when eid = e.eid ->
          note_write t ~lock:(Tel.Event.Thread_lock tid) ~field:"phase";
          th.t_offered <- None;
          th.t_owner <- Some e.eid;
          th.phase <- T_assigned;
          th.entry_pc <- entry_pc;
          th.entry_sp <- entry_sp;
          clear_aex_state t th ~locked:true;
          e.threads <- tid :: e.threads;
          ok
      | Some _ | None -> Error Api_error.Unauthorized)

let release_thread t ~caller ~tid =
  traced t ~caller "release_thread" @@ fun () ->
  let* e = require_enclave t caller in
  let* th = find_thread t tid in
  with_thread_lock t th (fun () ->
      match (th.phase, th.t_owner) with
      | T_assigned, Some owner when owner = e.eid ->
          note_write t ~lock:(Tel.Event.Thread_lock tid) ~field:"phase";
          th.t_owner <- None;
          th.phase <- T_available;
          clear_aex_state t th ~locked:true;
          e.threads <- List.filter (fun x -> x <> tid) e.threads;
          ok
      | T_running _, Some owner when owner = e.eid ->
          err_state "release_thread: thread is running"
      | _, _ -> Error Api_error.Unauthorized)

let unassign_thread t ~caller ~tid =
  traced t ~caller "unassign_thread" @@ fun () ->
  let* () = require_os caller in
  let* th = find_thread t tid in
  with_thread_lock t th (fun () ->
      match (th.phase, th.t_owner) with
      | T_running _, _ -> err_state "unassign_thread: thread is running"
      | _, Some owner when Hashtbl.mem t.enclaves owner ->
          (* The OS cannot rip a live enclave's thread away. *)
          Error Api_error.Unauthorized
      | _, (Some _ | None) ->
          note_write t ~lock:(Tel.Event.Thread_lock tid) ~field:"phase";
          th.t_owner <- None;
          th.t_offered <- None;
          th.phase <- T_available;
          clear_aex_state t th ~locked:true;
          ok)

let delete_thread t ~caller ~tid =
  traced t ~caller "delete_thread" @@ fun () ->
  let* () = require_os caller in
  let* th = find_thread t tid in
  with_thread_lock t th (fun () ->
      match th.phase with
      | T_available ->
          Hashtbl.remove t.threads tid;
          release_slot t ~addr:tid;
          ok
      | T_assigned | T_running _ ->
          err_state "delete_thread: thread is still assigned")

(* ------------------------------------------------------------------ *)
(* Enclave execution, AEX, and the trap funnel (Fig. 1) *)

let running_thread_on t core_id =
  Hashtbl.fold
    (fun _ th acc ->
      match th.phase with
      | T_running c when c = core_id -> Some th
      | T_running _ | T_assigned | T_available -> acc)
    t.threads None

let enter_enclave t ~caller ~eid ~tid ~core =
  traced t ~caller "enter_enclave"
    ~on_ok:(fun () ->
      emit t ~core (Tel.Event.Enclave_entered { eid; tid; target_core = core }))
  @@ fun () ->
  let* () = require_os caller in
  let* e = find_enclave t eid in
  with_enclave_lock t e (fun () ->
      let* () = require_initialized e in
      let* th = find_thread t tid in
      with_thread_lock t th (fun () ->
          if core < 0 || core >= Hw.Machine.core_count t.machine then
            err_arg "no such core"
          else if (Hw.Machine.core t.machine core).Hw.Machine.quarantined then
            err_state "enter_enclave: core is quarantined"
          else begin
            let c = Hw.Machine.core t.machine core in
            let* core_owner =
              match Resource.owner t.resources Resource.Core_resource ~rid:core with
              | Some d -> Ok d
              | None -> err_state "core is not owned"
            in
            if core_owner <> Hw.Trap.domain_untrusted && core_owner <> e.domain
            then Error Api_error.Unauthorized
            else if c.Hw.Machine.domain <> Hw.Trap.domain_untrusted then
              err_state "core is already inside an enclave"
            else begin
              match (th.phase, th.t_owner) with
              | T_assigned, Some owner when owner = eid ->
                  (* Core re-allocation: flush time-multiplexed state,
                     install the enclave's private translation. *)
                  t.pf.Pf.Platform.enter_domain ~core:c e.domain;
                  Hw.Machine.reset_core_state c;
                  c.Hw.Machine.satp_root <- e.root_ppn;
                  c.Hw.Machine.pc <- th.entry_pc;
                  Hw.Machine.write_reg c Hw.Isa.sp th.entry_sp;
                  Hw.Machine.write_reg c Hw.Isa.a0
                    (if th.aex_state <> None then 1L else 0L);
                  c.Hw.Machine.halted <- false;
                  note_write t ~lock:(Tel.Event.Thread_lock tid) ~field:"phase";
                  th.phase <- T_running core;
                  ok
              | (T_assigned | T_running _ | T_available), _ ->
                  err_state "enter_enclave: thread is not assigned to this enclave"
            end
          end))

(* Return a core to the untrusted domain with no architected or
   microarchitectural residue.

   The domain switches here and in [enter_enclave] need no explicit
   call into the machine's superblock tier either: every block entry
   translates its PC against the current [satp_root] and TLB, which
   [enter_domain]'s flush (like the shootdown IPIs behind
   [Platform.clean_range]) has emptied. Monitor stores to guest memory
   drop compiled code through the [Phys_mem] write hook. A stale
   translation or decode can therefore never survive a
   monitor-mediated transition. *)
let scrub_core t c =
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.satp_root <- None;
  t.pf.Pf.Platform.enter_domain ~core:c Hw.Trap.domain_untrusted;
  c.Hw.Machine.halted <- true

let exit_enclave t ~caller ~core =
  traced t ~caller "exit_enclave"
    ~on_ok:(fun () ->
      match caller with
      | Enclave_caller eid ->
          emit t ~core (Tel.Event.Enclave_exited { eid; aex = false })
      | Os -> ())
  @@ fun () ->
  let* e = require_enclave t caller in
  if core < 0 || core >= Hw.Machine.core_count t.machine then
    err_arg "no such core"
  else begin
    let c = Hw.Machine.core t.machine core in
    if c.Hw.Machine.domain <> e.domain then Error Api_error.Unauthorized
    else begin
      match running_thread_on t core with
      | None -> err_state "exit_enclave: no thread is running here"
      | Some th ->
          with_thread_lock t th (fun () ->
              note_write t ~lock:(Tel.Event.Thread_lock th.tid) ~field:"phase";
              th.phase <- T_assigned;
              clear_aex_state t th ~locked:true;
              scrub_core t c;
              ok)
    end
  end

let set_fault_handler t ~caller ~handler =
  traced t ~caller "set_fault_handler" @@ fun () ->
  let* e = require_enclave t caller in
  let* () = require_initialized e in
  e.fault_handler <- Some handler;
  ok

(* The AEX state dump lives in thread metadata (§V-C); the owning
   enclave reads it back to resume the interrupted computation, which
   also clears the dump. Layout: x1..x31 then the interrupted pc, as
   32 little-endian 64-bit words (x0 is omitted — it is always zero). *)
let aex_dump_bytes = 32 * 8

let read_aex_state t ~caller ~tid =
  traced t ~caller "read_aex_state" @@ fun () ->
  let* e = require_enclave t caller in
  let* th = find_thread t tid in
  with_thread_lock t th (fun () ->
      if th.t_owner <> Some e.eid then Error Api_error.Unauthorized
      else begin
        match th.aex_state with
        | None -> err_state "no AEX state is pending"
        | Some dump ->
            clear_aex_state t th ~locked:true;
            let b = Bytes.create aex_dump_bytes in
            for i = 1 to 31 do
              Bytes.set_int64_le b ((i - 1) * 8) dump.(i)
            done;
            Bytes.set_int64_le b (31 * 8) dump.(32);
            Ok (Bytes.unsafe_to_string b)
      end)

(* Asynchronous enclave exit (§V-C): save the interrupted context into
   the thread's AEX area, then hand a clean core to the OS. *)
let perform_aex t c th =
  let dump = Array.make 33 0L in
  Array.blit c.Hw.Machine.regs 0 dump 0 32;
  dump.(32) <- c.Hw.Machine.pc;
  th.aex_state <- Some dump;
  th.phase <- T_assigned;
  (if Tel.Sink.enabled t.sink then
     match th.t_owner with
     | Some eid ->
         Tel.Sink.incr_counter t.sink "sm.aex";
         emit t ~core:c.Hw.Machine.id (Tel.Event.Enclave_exited { eid; aex = true })
     | None -> ());
  scrub_core t c

(* ------------------------------------------------------------------ *)
(* Mailboxes (Fig. 5) *)

let untrusted_measurement = String.make Measurement.size '\000'

let accept_mail t ~caller ~sender =
  traced t ~caller "accept_mail" @@ fun () ->
  let* e = require_enclave t caller in
  let* () = require_initialized e in
  with_enclave_lock t e (fun () -> Mailbox.accept e.mailboxes ~sender)

let send_mail t ~caller ~recipient ~msg =
  traced t ~caller "send_mail"
    ~on_ok:(fun () ->
      emit t (Tel.Event.Mailbox_sent { sender = principal caller; recipient }))
  @@ fun () ->
  let* r = find_enclave t recipient in
  let* () = require_initialized r in
  (* the monitor, not the sender, records who sent the message *)
  let* sender, meas =
    match caller with
    | Os -> Ok (Mailbox.From_os, untrusted_measurement)
    | Enclave_caller eid -> begin
        match Hashtbl.find_opt t.enclaves eid with
        | Some { measurement = Some m; _ } -> Ok (Mailbox.From_enclave eid, m)
        | Some _ | None -> err_state "sender has no measurement yet"
      end
  in
  with_enclave_lock t r (fun () ->
      Mailbox.deposit r.mailboxes ~sender ~sender_measurement:meas ~msg)

let get_mail t ~caller ~sender =
  traced t ~caller "get_mail"
    ~on_ok:(fun () ->
      match caller with
      | Enclave_caller recipient ->
          let sender =
            match sender with
            | Mailbox.From_os -> Tel.Event.Os
            | Mailbox.From_enclave eid -> Tel.Event.Enclave eid
          in
          emit t (Tel.Event.Mailbox_received { recipient; sender })
      | Os -> ())
  @@ fun () ->
  let* e = require_enclave t caller in
  with_enclave_lock t e (fun () -> Mailbox.retrieve e.mailboxes ~sender)

(* ------------------------------------------------------------------ *)
(* Attestation support (§VI) *)

let get_field t = function
  | Field_public_key ->
      Crypto.Schnorr.public_key_to_bytes
        (Crypto.Schnorr.public_key t.identity.Boot.attestation_key)
  | Field_certificates ->
      Crypto.Cert.serialize_chain t.identity.Boot.certificates
  | Field_sm_measurement -> t.identity.Boot.sm_measurement
  | Field_signing_measurement -> t.signing_measurement

let get_signing_key t ~caller =
  traced t ~caller "get_signing_key" @@ fun () ->
  let* e = require_enclave t caller in
  match e.measurement with
  | Some m when Sanctorum_util.Bytesx.constant_time_equal m t.signing_measurement
    ->
      Ok t.identity.Boot.attestation_key
  | Some _ | None -> Error Api_error.Unauthorized

(* ------------------------------------------------------------------ *)
(* The ecall ABI *)

module Ecall = struct
  let exit_enclave = 1
  let accept_mail = 2
  let send_mail = 3
  let get_mail = 4
  let block_resource = 5
  let accept_resource = 6
  let accept_thread = 7
  let release_thread = 8
  let set_fault_handler = 9
  let read_aex_state = 10

  let error_code = function
    | Api_error.Illegal_argument _ -> 1L
    | Api_error.Unauthorized -> 2L
    | Api_error.Concurrent_call -> 3L
    | Api_error.Invalid_state _ -> 4L
    | Api_error.Out_of_resources _ -> 5L
    | Api_error.Internal_fault _ -> 6L
end

(* Copy bytes between monitor space and an enclave's virtual memory,
   through the enclave's own page tables (monitor authority bypasses
   the walk checks). *)
let enclave_vaddr_to_paddr t e vaddr =
  match e.root_ppn with
  | None -> None
  | Some root -> begin
      match
        fst
          (Hw.Page_table.walk (mem t) ~root_ppn:root ~vaddr
             ~pte_fetch_ok:(fun _ -> true))
      with
      | Ok (ppn, _) ->
          Some (Hw.Phys_mem.page_base ppn lor (vaddr land (page - 1)))
      | Error _ -> None
    end

(* The physical [(paddr, len)] segments behind [len] bytes at [vaddr],
   or [None] if any page is unmapped. The ecall path resolves every
   buffer before the call that reads or fills it: a call that consumes
   state (a mailbox message, an AEX dump) must not run when its result
   has nowhere to go. *)
let enclave_segments t e ~vaddr ~len =
  let rec go va remaining acc =
    if remaining = 0 then Some (List.rev acc)
    else begin
      match enclave_vaddr_to_paddr t e va with
      | None -> None
      | Some pa ->
          let chunk = min remaining (page - (va land (page - 1))) in
          go (va + chunk) (remaining - chunk) ((pa, chunk) :: acc)
    end
  in
  go vaddr len []

let read_segments t segments =
  String.concat ""
    (List.map
       (fun (pos, len) -> Hw.Phys_mem.read_string (mem t) ~pos ~len)
       segments)

let write_segments t segments data =
  ignore
    (List.fold_left
       (fun off (pos, len) ->
         Hw.Phys_mem.write_string (mem t) ~pos (String.sub data off len);
         off + len)
       0 segments)

let handle_ecall t (c : Hw.Machine.core) e =
  let caller = Enclave_caller e.eid in
  let arg n = Hw.Machine.read_reg c n in
  let a0 = Int64.to_int (arg Hw.Isa.a0) in
  let a1 = Int64.to_int (arg Hw.Isa.a1) in
  let a2 = Int64.to_int (arg Hw.Isa.a2) in
  let call = Int64.to_int (arg Hw.Isa.a7) in
  let sender_of_int v =
    if v = 0 then Mailbox.From_os else Mailbox.From_enclave v
  in
  let finish result =
    let code = match result with Ok () -> 0L | Error e -> Ecall.error_code e in
    Hw.Machine.write_reg c Hw.Isa.a0 code;
    c.Hw.Machine.pc <- Int64.add c.Hw.Machine.pc 4L
  in
  if call = Ecall.exit_enclave then begin
    match exit_enclave t ~caller ~core:c.Hw.Machine.id with
    | Ok () -> () (* core has been scrubbed; nothing to write back *)
    | Error err -> finish (Error err)
  end
  else if call = Ecall.accept_mail then
    finish (accept_mail t ~caller ~sender:(sender_of_int a0))
  else if call = Ecall.send_mail then begin
    match enclave_segments t e ~vaddr:a1 ~len:Mailbox.message_size with
    | None -> finish (err_arg "bad message buffer")
    | Some input ->
        finish (send_mail t ~caller ~recipient:a0 ~msg:(read_segments t input))
  end
  else if call = Ecall.get_mail then begin
    match
      ( enclave_segments t e ~vaddr:a1 ~len:Mailbox.message_size,
        enclave_segments t e ~vaddr:a2 ~len:Measurement.size )
    with
    | Some msg_out, Some meas_out ->
        finish
          (let* msg, meas = get_mail t ~caller ~sender:(sender_of_int a0) in
           write_segments t msg_out msg;
           write_segments t meas_out meas;
           ok)
    | _ -> finish (err_arg "bad output buffer")
  end
  else if call = Ecall.block_resource then begin
    let kind = if a0 = 0 then Resource.Core_resource else Resource.Memory_resource in
    finish (block_resource t ~caller kind ~rid:a1)
  end
  else if call = Ecall.accept_resource then begin
    let kind = if a0 = 0 then Resource.Core_resource else Resource.Memory_resource in
    finish (accept_resource t ~caller kind ~rid:a1)
  end
  else if call = Ecall.accept_thread then
    finish (accept_thread t ~caller ~tid:a0 ())
  else if call = Ecall.release_thread then
    finish (release_thread t ~caller ~tid:a0)
  else if call = Ecall.set_fault_handler then
    finish (set_fault_handler t ~caller ~handler:(arg Hw.Isa.a0))
  else if call = Ecall.read_aex_state then begin
    (* a0 = 0 means "the thread running on this core" — an enclave does
       not otherwise know its own tid. *)
    let tid =
      if a0 <> 0 then a0
      else
        match running_thread_on t c.Hw.Machine.id with
        | Some th -> th.tid
        | None -> -1
    in
    match enclave_segments t e ~vaddr:a1 ~len:aex_dump_bytes with
    | None -> finish (err_arg "bad output buffer")
    | Some out ->
        finish
          (let* dump = read_aex_state t ~caller ~tid in
           write_segments t out dump;
           ok)
  end
  else finish (err_arg "unknown monitor call")

(* ------------------------------------------------------------------ *)
(* Machine-check containment. A core that takes an uncorrectable error
   is lost: the monitor scrubs whatever is still reachable, reclaims
   the resident enclave's resources so the rest of the machine keeps
   serving, and retires the core. *)

(* Forced teardown of an enclave the monitor can no longer trust —
   the core it ran on died, or an uncorrectable error landed in its
   memory. Unlike [delete_enclave] it ignores the enclave lock (its
   holder may be the dead core) and running threads (their context is
   unrecoverable). *)
let emergency_reclaim_enclave t eid =
  match Hashtbl.find_opt t.enclaves eid with
  | None -> ()
  | Some e ->
      teardown t e;
      if Tel.Sink.enabled t.sink then begin
        Tel.Sink.incr_counter t.sink "sm.emergency_reclaims";
        emit t (Tel.Event.Enclave_destroyed { eid })
      end

let handle_machine_check t (c : Hw.Machine.core) ~paddr =
  if Tel.Sink.enabled t.sink then
    Tel.Sink.incr_counter t.sink "sm.machine_checks";
  (* The enclave resident on the dying core goes with it. *)
  (match enclave_of_domain t c.Hw.Machine.domain with
  | Some eid -> emergency_reclaim_enclave t eid
  | None -> ());
  (* An uncorrectable word poisons its owner: reclaim the enclave it
     belonged to, then retire the word (zeroing rewrites the check
     bits) so honest accesses elsewhere stop tripping over it. *)
  if paddr >= 0 && paddr + 8 <= Hw.Phys_mem.size (mem t) then begin
    let owner = t.pf.Pf.Platform.owner_at ~paddr in
    (match Hashtbl.find_opt t.domain_of_enclave owner with
    | Some eid -> emergency_reclaim_enclave t eid
    | None -> ());
    Hw.Phys_mem.zero_range (mem t) ~pos:(paddr / 8 * 8) ~len:8
  end;
  (* The trap handler still runs on the faulted core, so architected
     and microarchitectural state remain scrubbable — unlike a
     shootdown-timeout quarantine, where the core is unreachable. *)
  scrub_core t c;
  Hw.Machine.quarantine t.machine ~core:c.Hw.Machine.id ~reason:"machine-check"

(* Background patrol scrub: walk all of memory through the ECC engine,
   correcting single-bit faults before they accumulate into
   uncorrectable ones. An uncorrectable word found here is retired in
   place — its owning enclave reclaimed, the word zeroed — without
   sacrificing a core: nothing was executing through the bad word, so
   unlike the trap path there is no poisoned architectural state. *)
let patrol_scrub t =
  let m = mem t in
  let size = Hw.Phys_mem.size m in
  let corrected_before = Hw.Phys_mem.corrected_count m in
  let retired = ref 0 in
  let budget = ref (Hw.Phys_mem.pending_faults m + 1) in
  let scanning = ref true in
  while !scanning && !budget > 0 do
    decr budget;
    match Hw.Phys_mem.scrub m ~pos:0 ~len:size with
    | `Clean | `Corrected _ -> scanning := false
    | `Uncorrectable paddr ->
        if Tel.Sink.enabled t.sink then
          Tel.Sink.incr_counter t.sink "sm.patrol.retired";
        let owner = t.pf.Pf.Platform.owner_at ~paddr in
        (match Hashtbl.find_opt t.domain_of_enclave owner with
        | Some eid -> emergency_reclaim_enclave t eid
        | None -> ());
        Hw.Phys_mem.zero_range m ~pos:paddr ~len:8;
        incr retired
  done;
  (Hw.Phys_mem.corrected_count m - corrected_before, !retired)

(* Invoked by the machine for every quarantined core, whatever the
   trigger. Any thread the dead core was running is detached: its
   context is lost (fail closed — the computation dies, nothing
   leaks), and its enclave, if still alive, may schedule the thread
   again elsewhere from its entry point. *)
let handle_core_quarantine t (c : Hw.Machine.core) ~reason:_ =
  match running_thread_on t c.Hw.Machine.id with
  | Some th ->
      th.phase <- T_assigned;
      clear_aex_state t th ~locked:false
  | None -> ()

(* Hand [cause] to the OS on a clean core: save the interrupted
   enclave thread's context (AEX), or with no thread to save, scrub
   the core. The OS may always de-schedule an enclave, but never sees
   its state. *)
let aex_and_delegate t c cause =
  (match running_thread_on t c.Hw.Machine.id with
  | Some th -> perform_aex t c th
  | None -> scrub_core t c);
  t.os_handler c cause

(* The M-mode trap funnel (Fig. 1). *)
let on_trap_dispatch t _machine (c : Hw.Machine.core) cause =
  match enclave_of_domain t c.Hw.Machine.domain with
  | None ->
      (* Untrusted (or monitor-owned) context: straight delegation. *)
      t.os_handler c cause
  | Some eid -> begin
      (* A stale domain (no enclave behind it) is cleaned defensively. *)
      match (Hashtbl.find_opt t.enclaves eid, cause) with
      | Some e, Hw.Trap.Exception Hw.Trap.Ecall_user -> handle_ecall t c e
      | ( Some { fault_handler = Some h; _ },
          Hw.Trap.Exception (Hw.Trap.Page_fault (_, va)) ) ->
          (* Deliver the fault to the enclave's own handler — the OS
             never observes faults inside evrange. *)
          Hw.Machine.write_reg c Hw.Isa.a0 va;
          Hw.Machine.write_reg c Hw.Isa.a1 13L (* load page fault code *);
          c.Hw.Machine.pc <- h
      | _ -> aex_and_delegate t c cause
    end

let on_trap t machine (c : Hw.Machine.core) cause =
  match cause with
  | Hw.Trap.Exception (Hw.Trap.Machine_check paddr) ->
      (* Containment runs before any domain dispatch: the faulting
         core's bookkeeping may be among the casualties. *)
      handle_machine_check t c ~paddr
  | _ -> begin
      (* The funnel itself must not raise into the simulated machine:
         corrupted metadata mid-dispatch fails closed by retiring the
         core, exactly as a machine check would. *)
      match on_trap_dispatch t machine c cause with
      | () -> ()
      | exception _ ->
          (try scrub_core t c with _ -> ());
          Hw.Machine.quarantine t.machine ~core:c.Hw.Machine.id
            ~reason:"trap-handler-fault"
    end

(* ------------------------------------------------------------------ *)
(* Boot *)

let boot ~platform:pf ~identity ~signing_enclave_measurement =
  let machine = pf.Pf.Platform.machine in
  let unit_bytes = pf.Pf.Platform.alloc_unit in
  let mem_bytes = Hw.Phys_mem.size (Hw.Machine.mem machine) in
  let resources =
    Resource.create
      ~cores:(Hw.Machine.core_count machine)
      ~memory_units:(mem_bytes / unit_bytes)
  in
  (* The monitor's own memory: owned by the monitor, never grantable. *)
  let sm_units = Pf.Platform.sm_memory_bytes / unit_bytes in
  for rid = 0 to sm_units - 1 do
    Resource.force_owner resources Resource.Memory_resource ~rid
      Hw.Trap.domain_sm
  done;
  let t =
    {
      pf;
      machine;
      identity;
      signing_measurement = signing_enclave_measurement;
      resources;
      unit_bytes;
      enclaves = Hashtbl.create 16;
      threads = Hashtbl.create 16;
      slots = Hashtbl.create 16;
      domain_of_enclave = Hashtbl.create 16;
      next_domain = 2;
      os_handler =
        (fun core cause ->
          Format.eprintf "sanctorum: undelegated trap on core %d: %a@."
            core.Hw.Machine.id Hw.Trap.pp_cause cause;
          core.Hw.Machine.halted <- true);
      resource_lock = false;
      sink = Tel.Sink.null;
      post_api_hook = None;
      meas_cache = Measurement.Cache.create ();
    }
  in
  Hw.Machine.set_trap_handler machine (fun m c cause -> on_trap t m c cause);
  Hw.Machine.set_quarantine_handler machine (fun _ c ~reason ->
      handle_core_quarantine t c ~reason);
  t

let set_sink t sink =
  t.sink <- sink;
  Hw.Machine.set_sink t.machine sink

let sink t = t.sink

let mailbox_stats t ~eid =
  let* e = find_enclave t eid in
  Ok (Mailbox.stats e.mailboxes)

(* ------------------------------------------------------------------ *)
(* Read-only introspection for external checkers (Sanctorum_analysis).
   These deliberately bypass [traced]: a checker installed as a
   post-API hook must not itself generate API events or recurse. *)

type enclave_info = {
  i_eid : int;
  i_domain : Hw.Trap.domain;
  i_evbase : int;
  i_evsize : int;
  i_initialized : bool;
  i_has_measurement : bool;
  i_measuring : bool;
  i_root_ppn : int option;
  i_free_pages : int list;
  i_locked : bool;
}

type thread_info = {
  i_tid : int;
  i_owner : int option;
  i_offered : int option;
  i_phase : [ `Available | `Assigned | `Running of int ];
  i_has_aex : bool;
  i_thread_locked : bool;
}

let enclave_info t ~eid =
  Option.map
    (fun e ->
      {
        i_eid = e.eid;
        i_domain = e.domain;
        i_evbase = e.evbase;
        i_evsize = e.evsize;
        i_initialized = (e.lifecycle = Initialized);
        i_has_measurement = e.measurement <> None;
        i_measuring = e.meas_ctx <> None;
        i_root_ppn = e.root_ppn;
        i_free_pages = e.free_pages;
        i_locked = e.e_lock;
      })
    (Hashtbl.find_opt t.enclaves eid)

let enclave_mappings t ~eid =
  match Hashtbl.find_opt t.enclaves eid with
  | None -> []
  | Some e ->
      Hashtbl.fold (fun vpn ppn acc -> (vpn, ppn) :: acc) e.vmap []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let enclave_threads t ~eid =
  match Hashtbl.find_opt t.enclaves eid with
  | None -> []
  | Some e -> List.sort compare e.threads

let thread_ids t =
  Hashtbl.fold (fun tid _ acc -> tid :: acc) t.threads [] |> List.sort compare

let thread_info t ~tid =
  Option.map
    (fun th ->
      {
        i_tid = th.tid;
        i_owner = th.t_owner;
        i_offered = th.t_offered;
        i_phase =
          (match th.phase with
          | T_available -> `Available
          | T_assigned -> `Assigned
          | T_running core -> `Running core);
        i_has_aex = th.aex_state <> None;
        i_thread_locked = th.t_lock;
      })
    (Hashtbl.find_opt t.threads tid)

let mailbox_snapshot t ~eid =
  Option.map
    (fun e -> Mailbox.snapshot e.mailboxes)
    (Hashtbl.find_opt t.enclaves eid)

let metadata_slots t =
  Hashtbl.fold (fun addr len acc -> (addr, len) :: acc) t.slots []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let held_locks t =
  let acc = if t.resource_lock then [ Tel.Event.Resource_lock ] else [] in
  let acc =
    Hashtbl.fold
      (fun eid e acc -> if e.e_lock then Tel.Event.Enclave_lock eid :: acc else acc)
      t.enclaves acc
  in
  Hashtbl.fold
    (fun tid th acc -> if th.t_lock then Tel.Event.Thread_lock tid :: acc else acc)
    t.threads acc
  |> List.map Tel.Event.lock_name
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Fault injection (tests only): break one internal invariant so the
   analysis layer can demonstrate that its checker fires. None of
   these are reachable through the API surface. *)

let corrupt_enclave_lifecycle t ~eid =
  match Hashtbl.find_opt t.enclaves eid with
  | None -> ()
  | Some e -> (
      match e.lifecycle with
      | Loading -> e.lifecycle <- Initialized
      | Initialized -> e.lifecycle <- Loading)

let corrupt_thread_phase t ~tid ~core =
  match Hashtbl.find_opt t.threads tid with
  | None -> ()
  | Some th -> th.phase <- T_running core

let corrupt_metadata_slot t =
  Hashtbl.replace t.slots (metadata_limit t) 16

let corrupt_resource_owner t ~rid domain =
  Resource.force_owner t.resources Resource.Memory_resource ~rid domain
