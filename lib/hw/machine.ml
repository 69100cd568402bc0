module Tel = Sanctorum_telemetry

type core = {
  id : int;
  regs : int64 array;
  mutable pc : int64;
  mutable domain : Trap.domain;
  mutable satp_root : int option;
  mutable cycles : int;
  mutable instret : int;
  mutable halted : bool;
  mutable quarantined : bool;
  tlb : Tlb.t;
  l1 : Cache.t;
  pmp : Pmp.t;
  mutable timer_cmp : int option;
  pending_interrupts : Trap.interrupt Queue.t;
}

(* Hooks the fault-injection engine (lib/faults) installs to perturb
   the machine. [None] is the production configuration: each site pays
   a single option match. *)
type fault_hooks = {
  tick : core:int -> cycles:int -> unit;
  irq_gate : core:int -> irq:Trap.interrupt -> bool;
  drop_shootdown_ipi : target_core:int -> attempt:int -> bool;
}

type config = {
  mem_bytes : int;
  cores : int;
  l2 : Cache.config;
  pmp_entries : int;
}

(* The one count of TLB, cache, page-walk and retire events: handles
   resolved against the machine's own registry at [create], and again
   at [set_sink] against the sink's when it carries one, so the hot
   paths bump them with no lookup and no test. The machine's own
   registry is one per machine, never a global, because fleet shards
   run machines in parallel domains. *)
type hw_counters = {
  c_l1_hits : Tel.Metrics.counter;
  c_l1_misses : Tel.Metrics.counter;
  c_l2_hits : Tel.Metrics.counter;
  c_l2_misses : Tel.Metrics.counter;
  c_tlb_hits : Tel.Metrics.counter;
  c_tlb_misses : Tel.Metrics.counter;
  c_ptw_steps : Tel.Metrics.counter;
  c_instret : Tel.Metrics.counter;
  c_ecc_corrected : Tel.Metrics.counter;
  c_ecc_uncorrectable : Tel.Metrics.counter;
  (* host-side superblock diagnostics, the hw.sb. family: not
     architectural, so the one counter family allowed to differ across
     tiers *)
  c_sb_blocks : Tel.Metrics.counter;
  c_sb_instret : Tel.Metrics.counter;
  c_sb_side_exits : Tel.Metrics.counter;
}

let hw_counters m =
  let c = Tel.Metrics.counter m in
  {
    c_l1_hits = c "hw.cache.l1.hits";
    c_l1_misses = c "hw.cache.l1.misses";
    c_l2_hits = c "hw.cache.l2.hits";
    c_l2_misses = c "hw.cache.l2.misses";
    c_tlb_hits = c "hw.tlb.hits";
    c_tlb_misses = c "hw.tlb.misses";
    c_ptw_steps = c "hw.ptw.steps";
    c_instret = c "hw.instret";
    c_ecc_corrected = c "hw.ecc.corrected";
    c_ecc_uncorrectable = c "hw.ecc.uncorrectable";
    c_sb_blocks = c "hw.sb.blocks";
    c_sb_instret = c "hw.sb.instret";
    c_sb_side_exits = c "hw.sb.side_exits";
  }

(* ---- Superblock tier: representation -------------------------------

   One [sb_page] per physical page of code: an array with one compiled
   closure per 4-byte slot. A closure executes its instruction with the
   exact accounting [step] would pay and returns the next slot to run
   within the same page, or -1 to leave the block after storing the
   resume PC in [sx_exit_pc]. Slots start out as a shared build
   closure that compiles itself on first execution. [sb_gen] is the
   frame's [Phys_mem.generation] when the page was made: a block
   entry reuses the page only while the frame's generation still
   equals it. *)

type sb_ctx = {
  sx_core : core;
  mutable sx_vbase : int64;
      (* virtual address of the page's slot 0 at entry (PC minus the
         in-page offset), alias bits included: all in-block PCs, link
         values and exit PCs derive from it *)
  mutable sx_paging : bool;  (* satp active at entry *)
  mutable sx_fuel : int;
  mutable sx_exit_pc : int64;
  mutable sx_tslot : int;  (* TLB slot of the last successful probe *)
  (* the block's last data access: its virtual page (-1 = none yet),
     kind and frame; its TLB slot is [sx_tslot] *)
  mutable sx_dpage : int;
  mutable sx_daccess : Trap.access;
  mutable sx_dframe : int;
  (* what the timer deadline and [rdcycle] read, deferred but exact:
     accumulated here, flushed once at block exit *)
  mutable sx_cycles : int;
  mutable sx_instret : int;
  (* batch of consecutive same-line fetch hits, flushed via
     [Cache.note_repeat_hits] before any other cache-model access *)
  mutable sx_line : int;  (* line tag; -1 = no open batch *)
  mutable sx_line_paddr : int;
  mutable sx_line_rep : int;
  sx_hit_plus1 : int;  (* L1 hit cycles + the dispatch cycle *)
  mutable sx_side_exit : bool;  (* ended on a guard miss / trap handoff *)
}

and sb_page = { sb_code : (sb_ctx -> int -> int) array; sb_gen : int }

type t = {
  mem : Phys_mem.t;
  cores : core array;
  l2 : Cache.t;
  cfg : config;
  sb_pages : sb_page option array;  (* indexed by physical page *)
  sb_ctxs : sb_ctx array;  (* indexed by core id *)
  mutable fast_path : bool;
  mutable phys_check : core:core -> access:Trap.access -> paddr:int -> bool;
  mutable pte_fetch_check : core:core -> paddr:int -> bool;
  mutable dma_check : paddr:int -> len:int -> bool;
  mutable trap_handler : t -> core -> Trap.cause -> unit;
  mutable sink : Tel.Sink.t;
  own_metrics : Tel.Metrics.t;  (* see [metrics] *)
  mutable ctrs : hw_counters;
  trap_ctrs : Tel.Metrics.counter option array;
      (* the sink's [hw.traps.<label>] counters by [Trap.cause_index],
         each resolved on its cause's first delivery *)
  mutable fault_hooks : fault_hooks option;
  mutable quarantine_handler : (t -> core -> reason:string -> unit) option;
}

exception Fault of Trap.exception_cause

(* Local copies of the 4 KiB page geometry so the hot paths compile to
   a shift and a mask instead of cross-module loads and divisions. *)
let page_shift = 12
let page_mask = 0xfff
let () = assert (Phys_mem.page_size = 1 lsl page_shift)

(* Every core's L1, TLB size and page-walk step cost: one value on
   every machine. *)
let l1_config = Cache.default_l1
let l1_shift = Sanctorum_util.Bits.log2 l1_config.Cache.line_bytes
let tlb_entries = 32
let pte_fetch_cycles = 12

let default_config =
  {
    mem_bytes = 16 * 1024 * 1024;
    cores = 4;
    l2 = Cache.default_l2;
    pmp_entries = Pmp.entry_count;
  }

let create cfg =
  let mk_core id =
    {
      id;
      regs = Array.make 32 0L;
      pc = 0L;
      domain = Trap.domain_untrusted;
      satp_root = None;
      cycles = 0;
      instret = 0;
      halted = false;
      quarantined = false;
      tlb = Tlb.create ~entries:tlb_entries;
      l1 = Cache.create l1_config;
      pmp = Pmp.create ~entries:cfg.pmp_entries ();
      timer_cmp = None;
      pending_interrupts = Queue.create ();
    }
  in
  let mk_sb_ctx core =
    {
      sx_core = core;
      sx_vbase = 0L;
      sx_paging = false;
      sx_fuel = 0;
      sx_exit_pc = 0L;
      sx_tslot = -1;
      sx_dpage = -1;
      sx_daccess = Trap.Read;
      sx_dframe = 0;
      sx_cycles = 0;
      sx_instret = 0;
      sx_line = -1;
      sx_line_paddr = 0;
      sx_line_rep = 0;
      sx_hit_plus1 = l1_config.Cache.hit_cycles + 1;
      sx_side_exit = false;
    }
  in
  let cores = Array.init cfg.cores mk_core in
  let own_metrics = Tel.Metrics.create () in
  {
    mem = Phys_mem.create ~size:cfg.mem_bytes;
    cores;
    l2 = Cache.create cfg.l2;
    cfg;
    sb_pages = Array.make (cfg.mem_bytes / Phys_mem.page_size) None;
    sb_ctxs = Array.map mk_sb_ctx cores;
    fast_path = true;
    phys_check = (fun ~core:_ ~access:_ ~paddr:_ -> true);
    pte_fetch_check = (fun ~core:_ ~paddr:_ -> true);
    dma_check = (fun ~paddr:_ ~len:_ -> true);
    trap_handler =
      (fun _ core cause ->
        Format.eprintf "machine: unhandled trap on core %d: %a@." core.id
          Trap.pp_cause cause;
        core.halted <- true);
    sink = Tel.Sink.null;
    own_metrics;
    ctrs = hw_counters own_metrics;
    trap_ctrs = Array.make Trap.cause_count None;
    fault_hooks = None;
    quarantine_handler = None;
  }

let set_fast_path t enabled = t.fast_path <- enabled

let metrics t = Option.value (Tel.Sink.metrics t.sink) ~default:t.own_metrics

let set_sink t sink =
  t.sink <- sink;
  t.ctrs <- hw_counters (metrics t);
  Array.fill t.trap_ctrs 0 Trap.cause_count None

let sink t = t.sink

let now t =
  let m = ref 0 in
  for i = 0 to Array.length t.cores - 1 do
    let c = t.cores.(i).cycles in
    if c > !m then m := c
  done;
  !m

let mem t = t.mem
let l2 t = t.l2
let cores t = t.cores
let core t i = t.cores.(i)
let core_count t = Array.length t.cores

let set_phys_check t f = t.phys_check <- f
let set_pte_fetch_check t f = t.pte_fetch_check <- f
let set_dma_check t f = t.dma_check <- f
let set_trap_handler t f = t.trap_handler <- f
let set_fault_hooks t h = t.fault_hooks <- h
let set_quarantine_handler t f = t.quarantine_handler <- Some f
let read_reg core r = if r = 0 then 0L else core.regs.(r)
let write_reg core r v = if r <> 0 then core.regs.(r) <- v

let reset_core_state core =
  Array.fill core.regs 0 32 0L;
  core.pc <- 0L

let post_interrupt t ~core irq =
  let c = t.cores.(core) in
  (* a quarantined core is fenced off the interconnect: interrupts
     aimed at it are dropped, never queued *)
  if not c.quarantined then Queue.add irq c.pending_interrupts

(* ECC runs in the memory controller: every architectural access
   (instruction fetch, load/store, PTE fetch, DMA) scrubs the words it
   touches. Single-bit faults are corrected silently (and counted);
   an uncorrectable word raises [Fault (Machine_check paddr)]. The
   [pending_faults] guard keeps the fault-free fast path at one load
   and compare. *)
let ecc_check_exn t ~core_id ~cycles ~pos ~len =
  if Phys_mem.pending_faults t.mem > 0 && pos >= 0 && len > 0
     && pos + len <= Phys_mem.size t.mem
  then
    match Phys_mem.scrub t.mem ~pos ~len with
    | `Clean -> ()
    | `Corrected n ->
        Tel.Metrics.add t.ctrs.c_ecc_corrected n;
        if Tel.Sink.enabled t.sink then
          Tel.Sink.emit t.sink ~core:core_id ~cycles
            (Tel.Event.Ecc_corrected { paddr = pos })
    | `Uncorrectable paddr ->
        Tel.Metrics.incr t.ctrs.c_ecc_uncorrectable;
        if Tel.Sink.enabled t.sink then
          Tel.Sink.emit t.sink ~core:core_id ~cycles
            (Tel.Event.Machine_check { paddr });
        raise (Fault (Trap.Machine_check paddr))

let tlb_perms_allow (perms : Tlb.perms) (access : Trap.access) =
  perms.u
  &&
  match access with
  | Trap.Read -> perms.r
  | Trap.Write -> perms.w
  | Trap.Execute -> perms.x

(* Translation without the final cache access, for an access of [size]
   bytes at [vaddr] inside one page. Raises [Fault]. *)
let translate_exn t core ~access ~vaddr ~size =
  let va = Int64.to_int vaddr in
  if
    va < 0
    || Int64.compare vaddr (Int64.shift_left 1L Page_table.vpn_bits) >= 0
  then raise (Fault (Trap.Page_fault (access, vaddr)));
  let paddr =
    match core.satp_root with
    | None -> va
    | Some root ->
        let vpn = va lsr 12 in
        let slot = Tlb.find core.tlb ~vpn in
        if slot >= 0 then begin
          (* TLB hit: the whole translation is slot reads and integer
             arithmetic — no allocation. *)
          Tel.Metrics.incr t.ctrs.c_tlb_hits;
          let perms = Tlb.slot_perms core.tlb slot in
          if not (tlb_perms_allow perms access) then
            raise (Fault (Trap.Page_fault (access, vaddr)));
          Phys_mem.page_base (Tlb.slot_ppn core.tlb slot)
          lor (va land page_mask)
        end
        else begin
          Tel.Metrics.incr t.ctrs.c_tlb_misses;
          let pte_fetch_ok paddr =
            ecc_check_exn t ~core_id:core.id ~cycles:core.cycles ~pos:paddr
              ~len:8;
            t.pte_fetch_check ~core ~paddr
          in
          let walked, steps =
            Page_table.walk t.mem ~root_ppn:root ~vaddr:va ~pte_fetch_ok
          in
          Tel.Metrics.add t.ctrs.c_ptw_steps steps;
          core.cycles <- core.cycles + (steps * pte_fetch_cycles);
          match walked with
          | Error Page_table.Invalid_mapping ->
              raise (Fault (Trap.Page_fault (access, vaddr)))
          | Error (Page_table.Walk_access_denied _) ->
              raise (Fault (Trap.Access_fault (access, vaddr)))
          | Ok (ppn, p) ->
              let perms : Tlb.perms =
                { r = p.Page_table.r; w = p.w; x = p.x; u = p.u }
              in
              Tlb.insert core.tlb ~vpn ~ppn ~perms;
              if not (tlb_perms_allow perms access) then
                raise (Fault (Trap.Page_fault (access, vaddr)));
              Phys_mem.page_base ppn lor (va land page_mask)
        end
  in
  if paddr + size > Phys_mem.size t.mem then
    raise (Fault (Trap.Access_fault (access, vaddr)));
  if not (t.phys_check ~core ~access ~paddr) then
    raise (Fault (Trap.Access_fault (access, vaddr)));
  paddr

let translate t core ~access ~vaddr =
  match translate_exn t core ~access ~vaddr ~size:1 with
  | paddr -> Ok paddr
  | exception Fault f -> Error f

(* The cycles one access costs the cache hierarchy (L1, on a miss also
   L2), counted where it happens: [step]'s charge and the superblock
   tier's line transitions and data accesses all pay it. *)
let cache_cost t (core : core) ~paddr =
  let c = t.ctrs in
  if Cache.access_hit core.l1 ~paddr then begin
    Tel.Metrics.incr c.c_l1_hits;
    l1_config.Cache.hit_cycles
  end
  else begin
    let l2_hit = Cache.access_hit t.l2 ~paddr in
    Tel.Metrics.incr c.c_l1_misses;
    Tel.Metrics.incr (if l2_hit then c.c_l2_hits else c.c_l2_misses);
    l1_config.Cache.miss_cycles
    + if l2_hit then t.cfg.l2.Cache.hit_cycles else t.cfg.l2.Cache.miss_cycles
  end

let charge_cache t (core : core) ~paddr =
  core.cycles <- core.cycles + cache_cost t core ~paddr

(* Charge the cache hierarchy for an instruction fetch and return the
   paddr. A PC that is not 4-byte aligned raises the precise
   [Instruction_address_misaligned] trap (RISC-V: JALR clears only bit
   0 of its target, so bit 1 can survive into the PC); the superblock
   tier declines a misaligned entry PC and leaves it to [step], so the
   trap is identical with the tier on or off. *)
let cached_access t core ~access ~vaddr ~size =
  if access = Trap.Execute && Int64.logand vaddr 3L <> 0L then
    raise (Fault (Trap.Instruction_address_misaligned vaddr));
  let paddr = translate_exn t core ~access ~vaddr ~size in
  ecc_check_exn t ~core_id:core.id ~cycles:core.cycles ~pos:paddr ~len:size;
  charge_cache t core ~paddr;
  paddr

(* A data access is either contiguous in physical memory or, when it
   crosses a page boundary, split across two independent translations
   (this machine supports misaligned loads/stores in hardware, like
   most RV64 application cores). Both halves are translated — and both
   PMP / ownership checks pass — before a single byte moves, so a fault
   on the second page can neither leak bytes through the first page's
   translation nor leave a partial store behind. *)
type span = Contig of int | Split of int * int * int
(* [Split (paddr_lo, bytes_lo, paddr_hi)]: [bytes_lo] bytes at
   [paddr_lo], the rest at [paddr_hi]. *)

let data_access t core ~access ~vaddr ~size =
  let off = Int64.to_int vaddr land page_mask in
  if off + size <= Phys_mem.page_size then begin
    let paddr = translate_exn t core ~access ~vaddr ~size in
    ecc_check_exn t ~core_id:core.id ~cycles:core.cycles ~pos:paddr ~len:size;
    charge_cache t core ~paddr;
    Contig paddr
  end
  else begin
    let bytes_lo = Phys_mem.page_size - off in
    let paddr_lo = translate_exn t core ~access ~vaddr ~size:bytes_lo in
    let paddr_hi =
      translate_exn t core ~access
        ~vaddr:(Int64.add vaddr (Int64.of_int bytes_lo))
        ~size:(size - bytes_lo)
    in
    ecc_check_exn t ~core_id:core.id ~cycles:core.cycles ~pos:paddr_lo
      ~len:bytes_lo;
    ecc_check_exn t ~core_id:core.id ~cycles:core.cycles ~pos:paddr_hi
      ~len:(size - bytes_lo);
    charge_cache t core ~paddr:paddr_lo;
    charge_cache t core ~paddr:paddr_hi;
    Split (paddr_lo, bytes_lo, paddr_hi)
  end

let load t core ~op ~vaddr =
  let open Isa in
  let size = match op with
    | Lb | Lbu -> 1 | Lh | Lhu -> 2 | Lw | Lwu -> 4 | Ld -> 8
  in
  let raw =
    match data_access t core ~access:Trap.Read ~vaddr ~size with
    | Contig paddr -> (
        match size with
        | 1 -> Int64.of_int (Phys_mem.read_u8 t.mem paddr)
        | 2 -> Int64.of_int (Phys_mem.read_u16 t.mem paddr)
        | 4 ->
            Int64.logand
              (Int64.of_int32 (Phys_mem.read_u32 t.mem paddr))
              0xffffffffL
        | _ -> Phys_mem.read_u64 t.mem paddr)
    | Split (lo, bytes_lo, hi) ->
        let v = ref 0L in
        for i = size - 1 downto 0 do
          let b =
            if i < bytes_lo then Phys_mem.read_u8 t.mem (lo + i)
            else Phys_mem.read_u8 t.mem (hi + i - bytes_lo)
          in
          v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
        done;
        !v
  in
  match op with
  | Lb ->
      Int64.of_int (Sanctorum_util.Bits.sign_extend (Int64.to_int raw) ~width:8)
  | Lbu -> raw
  | Lh ->
      Int64.of_int
        (Sanctorum_util.Bits.sign_extend (Int64.to_int raw) ~width:16)
  | Lhu -> raw
  | Lw -> Int64.of_int32 (Int64.to_int32 raw)
  | Lwu -> raw
  | Ld -> raw

let store t core ~op ~vaddr ~value =
  let open Isa in
  let size = match op with Sb -> 1 | Sh -> 2 | Sw -> 4 | Sd -> 8 in
  match data_access t core ~access:Trap.Write ~vaddr ~size with
  | Contig paddr -> (
      match op with
      | Sb -> Phys_mem.write_u8 t.mem paddr (Int64.to_int value land 0xff)
      | Sh -> Phys_mem.write_u16 t.mem paddr (Int64.to_int value land 0xffff)
      | Sw -> Phys_mem.write_u32 t.mem paddr (Int64.to_int32 value)
      | Sd -> Phys_mem.write_u64 t.mem paddr value)
  | Split (lo, bytes_lo, hi) ->
      for i = 0 to size - 1 do
        let b =
          Int64.to_int (Int64.shift_right_logical value (8 * i)) land 0xff
        in
        let pos = if i < bytes_lo then lo + i else hi + i - bytes_lo in
        Phys_mem.write_u8 t.mem pos b
      done

let alu op a b =
  let open Isa in
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Sll -> Int64.shift_left a (Int64.to_int b land 63)
  | Slt -> if Int64.compare a b < 0 then 1L else 0L
  | Sltu ->
      if Int64.unsigned_compare a b < 0 then 1L else 0L
  | Xor -> Int64.logxor a b
  | Srl -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Sra -> Int64.shift_right a (Int64.to_int b land 63)
  | Or -> Int64.logor a b
  | And -> Int64.logand a b

let branch_taken op a b =
  let open Isa in
  match op with
  | Beq -> Int64.equal a b
  | Bne -> not (Int64.equal a b)
  | Blt -> Int64.compare a b < 0
  | Bge -> Int64.compare a b >= 0
  | Bltu -> Int64.unsigned_compare a b < 0
  | Bgeu -> Int64.unsigned_compare a b >= 0

(* Count a delivery in the sink's registry, when it carries one; a
   cause that never fires registers no counter. *)
let count_trap t cause label =
  match Tel.Sink.metrics t.sink with
  | None -> ()
  | Some m ->
      let i = Trap.cause_index cause in
      if Option.is_none t.trap_ctrs.(i) then
        t.trap_ctrs.(i) <- Some (Tel.Metrics.counter m ("hw.traps." ^ label));
      Option.iter Tel.Metrics.incr t.trap_ctrs.(i)

let deliver_trap t core cause =
  if Tel.Sink.enabled t.sink then begin
    let label = Trap.cause_label cause in
    count_trap t cause label;
    Tel.Sink.emit t.sink ~core:core.id ~cycles:core.cycles
      (Tel.Event.Trap_enter { cause = label });
    t.trap_handler t core cause;
    Tel.Sink.emit t.sink ~core:core.id ~cycles:core.cycles
      (Tel.Event.Trap_exit { cause = label })
  end
  else t.trap_handler t core cause

(* ---- Fault containment --------------------------------------------- *)

let quarantine t ~core ~reason =
  let c = t.cores.(core) in
  if not c.quarantined then begin
    c.quarantined <- true;
    c.halted <- true;
    c.timer_cmp <- None;
    Queue.clear c.pending_interrupts;
    if Tel.Sink.enabled t.sink then begin
      Tel.Sink.incr_counter t.sink "hw.core.quarantined";
      Tel.Sink.emit t.sink ~core:(-1) ~cycles:(now t)
        (Tel.Event.Core_quarantined { core; reason })
    end;
    match t.quarantine_handler with Some f -> f t c ~reason | None -> ()
  end

let shootdown_max_attempts = 3

(* Inter-core TLB shootdown with acknowledgment timeouts. An IPI the
   fault engine drops is retried up to [shootdown_max_attempts] times;
   a core that never acknowledges is presumed dead and quarantined —
   its stale TLB is harmless because a quarantined core never runs
   again (fail closed: lose a core, never serve a stale translation). *)
let tlb_shootdown t ~reason =
  Array.iter
    (fun c ->
      if not c.quarantined then begin
        let delivered = ref false in
        let attempt = ref 1 in
        while (not !delivered) && !attempt <= shootdown_max_attempts do
          let dropped =
            match t.fault_hooks with
            | Some h -> h.drop_shootdown_ipi ~target_core:c.id ~attempt:!attempt
            | None -> false
          in
          if dropped then begin
            if Tel.Sink.enabled t.sink then begin
              Tel.Sink.incr_counter t.sink "hw.shootdown.retries";
              Tel.Sink.emit t.sink ~core:(-1) ~cycles:(now t)
                (Tel.Event.Shootdown_retry
                   { target_core = c.id; attempt = !attempt })
            end;
            incr attempt
          end
          else begin
            Tlb.flush c.tlb;
            Cache.flush_all c.l1;
            delivered := true
          end
        done;
        if not !delivered then
          quarantine t ~core:c.id ~reason:"shootdown-timeout"
      end)
    t.cores;
  if Tel.Sink.enabled t.sink then
    Tel.Sink.emit t.sink ~core:(-1) ~cycles:(now t)
      (Tel.Event.Tlb_flush { reason })

let raise_machine_check t ~core ~paddr =
  let c = t.cores.(core) in
  if not (c.halted || c.quarantined) then begin
    Tel.Metrics.incr t.ctrs.c_ecc_uncorrectable;
    if Tel.Sink.enabled t.sink then
      Tel.Sink.emit t.sink ~core:c.id ~cycles:c.cycles
        (Tel.Event.Machine_check { paddr });
    deliver_trap t c (Trap.Exception (Trap.Machine_check paddr))
  end

let irq_allowed t core irq =
  match t.fault_hooks with
  | None -> true
  | Some h ->
      let ok = h.irq_gate ~core:core.id ~irq in
      if (not ok) && Tel.Sink.enabled t.sink then
        Tel.Sink.incr_counter t.sink "hw.irq.dropped";
      ok

(* Returns true if an interrupt was delivered instead of an instruction. *)
let check_interrupts t core =
  let timer_due =
    match core.timer_cmp with Some c -> core.cycles >= c | None -> false
  in
  if timer_due then begin
    core.timer_cmp <- None;
    if irq_allowed t core Trap.Timer then begin
      deliver_trap t core (Trap.Interrupt Trap.Timer);
      true
    end
    else false
  end
  else if Queue.is_empty core.pending_interrupts then false
  else begin
    let irq = Queue.pop core.pending_interrupts in
    if irq_allowed t core irq then begin
      deliver_trap t core (Trap.Interrupt irq);
      true
    end
    else false
  end

let execute t core instr =
  let open Isa in
  let next = Int64.add core.pc 4L in
  match instr with
  | Lui (rd, imm) ->
      write_reg core rd (Int64.shift_left (Int64.of_int imm) 12);
      core.pc <- next
  | Auipc (rd, imm) ->
      write_reg core rd
        (Int64.add core.pc (Int64.shift_left (Int64.of_int imm) 12));
      core.pc <- next
  | Jal (rd, off) ->
      write_reg core rd next;
      core.pc <- Int64.add core.pc (Int64.of_int off)
  | Jalr (rd, rs1, imm) ->
      let target =
        Int64.logand
          (Int64.add (read_reg core rs1) (Int64.of_int imm))
          (Int64.lognot 1L)
      in
      write_reg core rd next;
      core.pc <- target
  | Branch (op, rs1, rs2, off) ->
      if branch_taken op (read_reg core rs1) (read_reg core rs2) then
        core.pc <- Int64.add core.pc (Int64.of_int off)
      else core.pc <- next
  | Load (op, rd, rs1, imm) ->
      let vaddr = Int64.add (read_reg core rs1) (Int64.of_int imm) in
      let v = load t core ~op ~vaddr in
      write_reg core rd v;
      core.pc <- next
  | Store (op, rs2, rs1, imm) ->
      let vaddr = Int64.add (read_reg core rs1) (Int64.of_int imm) in
      store t core ~op ~vaddr ~value:(read_reg core rs2);
      core.pc <- next
  | Op_imm (op, rd, rs1, imm) ->
      write_reg core rd (alu op (read_reg core rs1) (Int64.of_int imm));
      core.pc <- next
  | Op (op, rd, rs1, rs2) ->
      write_reg core rd (alu op (read_reg core rs1) (read_reg core rs2));
      core.pc <- next
  | Mul (rd, rs1, rs2) ->
      write_reg core rd (Int64.mul (read_reg core rs1) (read_reg core rs2));
      core.pc <- next
  | Csr_read_cycle rd ->
      write_reg core rd (Int64.of_int core.cycles);
      core.pc <- next
  | Fence -> core.pc <- next
  | Ecall -> deliver_trap t core (Trap.Exception Trap.Ecall_user)
  | Ebreak -> deliver_trap t core (Trap.Exception Trap.Breakpoint)

(* Retire one decoded instruction: the dispatch cycle, its effects and
   instret, or the precise trap it raised. *)
let dispatch t core instr =
  core.cycles <- core.cycles + 1;
  match execute t core instr with
  | () ->
      core.instret <- core.instret + 1;
      Tel.Metrics.incr t.ctrs.c_instret
  | exception Fault f -> deliver_trap t core (Trap.Exception f)

(* The stepped reference pipeline, the one fetch and decode path:
   translate, scrub and charge the fetch, decode the word from memory,
   dispatch. *)
let step t core =
  (match t.fault_hooks with
  | Some h -> h.tick ~core:core.id ~cycles:core.cycles
  | None -> ());
  if core.halted then ()
  else if check_interrupts t core then ()
  else begin
    match
      cached_access t core ~access:Trap.Execute ~vaddr:core.pc ~size:4
    with
    | exception Fault f -> deliver_trap t core (Trap.Exception f)
    | paddr -> (
        let word = Phys_mem.read_u32 t.mem paddr in
        match Isa.decode word with
        | None ->
            deliver_trap t core
              (Trap.Exception (Trap.Illegal_instruction word))
        | Some instr -> dispatch t core instr)
  end

(* ---- Superblock tier: engine ----------------------------------------

   Pre-translated straight-line runs, including loads and stores. A
   block's entry is the one place that tests what only code outside
   the block can move: [run] enters no block while fault hooks are
   armed or an interrupt is pending, [sb_exec] none while an ECC fault
   is pending, and a compiled page is reused only while its frame's
   generation stands. No monitor, OS or fault-engine code runs inside
   a block, and its own instructions insert or flush no TLB entry,
   flip no bit and post no interrupt, so none of these inputs moves
   before the block exits. Every closure splits into a pure guard
   phase and a commit phase:

   - guard: for memory ops, the checks [translate_exn]/[data_access]
     make on the access's own address: virtual range, page crossing,
     TLB probe and permission, physical bounds, the isolation check. A
     fetch has none: the block's entry translated its PC and passed
     the isolation check, a block never leaves that page, and the
     check answers alike for every address of a page from state only
     monitor code changes (the [set_phys_check] contract) — so the
     entry's answer is every fetch's. The guard phase mutates nothing,
     so a side exit leaves architectural state bit-identical to never
     having entered the block and the stepped path replays the
     instruction — and raises the precise trap — from scratch.

   - commit: the access in [step]'s exact order — fetch cache charge
     (batched per line), the dispatch cycle, data TLB hit, data cache
     charge, bytes, registers, retire. Line transitions and data
     accesses pay [step]'s [cache_cost] and are counted where they
     happen. Only cycles, instret and the open line batch are deferred
     in the per-core [sb_ctx] and flushed once at block exit, with the
     block's fetch TLB hits: with paging on, each retired instruction
     was fetched once through the TLB entry the block's entry found.
     Batching is the only reordering, and [Cache.note_repeat_hits]
     makes it exact: consecutive same-line fetch hits with nothing in
     between collapse to one update with bit-identical tick and LRU
     order.

   A store into the block's own code frame ends the block once it has
   committed: it moved the frame's generation, so the next entry
   compiles the page afresh from the new bytes.

   An armed timer is a deadline, not a veto: [step] checks it before
   each instruction against [cycles], and at every in-block boundary
   [cycles] equals the entry value plus the deferred [sx_cycles], so
   [sb_exec] stops at the first boundary where [sx_cycles] reaches
   [timer_cmp - cycles] and [step] then delivers the timer at exactly
   the stepped pc, cycle and instret. *)

let sb_slots = Phys_mem.page_size / 4
let sb_page_size64 = Int64.of_int Phys_mem.page_size
let sb_va_limit = Int64.shift_left 1L Page_table.vpn_bits

(* Side-exit before any effect: resume at the guarded instruction. *)
let sb_side_exit ctx slot =
  ctx.sx_exit_pc <- Int64.add ctx.sx_vbase (Int64.of_int (slot lsl 2));
  ctx.sx_side_exit <- true;
  -1

(* End the block after a committed instruction; [pc] is architectural. *)
let sb_exit_at ctx pc =
  ctx.sx_exit_pc <- pc;
  -1

let sb_flush_line t (core : core) ctx =
  if ctx.sx_line_rep > 0 then begin
    Cache.note_repeat_hits core.l1 ~paddr:ctx.sx_line_paddr ~n:ctx.sx_line_rep;
    Tel.Metrics.add t.ctrs.c_l1_hits ctx.sx_line_rep;
    ctx.sx_line_rep <- 0
  end;
  ctx.sx_line <- -1

(* Per-instruction fetch commit: the cache charge and the dispatch
   cycle. A fetch from the open line joins its batch; the first fetch
   from a new line flushes the batch, pays the real cache-model access
   and opens a new one. *)
let sb_account_fetch t (core : core) ctx ~paddr ~line =
  if ctx.sx_line = line then begin
    ctx.sx_line_rep <- ctx.sx_line_rep + 1;
    ctx.sx_cycles <- ctx.sx_cycles + ctx.sx_hit_plus1
  end
  else begin
    sb_flush_line t core ctx;
    ctx.sx_cycles <- ctx.sx_cycles + cache_cost t core ~paddr + 1;
    ctx.sx_line <- line;
    ctx.sx_line_paddr <- paddr
  end

(* The pure half of a translation that hits the TLB: probe, permission,
   physical bounds for [size] bytes and the isolation check — every
   check [translate_exn] makes on an in-range address — evaluated
   without mutating anything. Returns the physical address, or -1
   wherever the stepped path would walk the page table or trap. With
   paging on, a hit leaves its TLB slot in [sx_tslot] for the commit.
   Shared by the block entry's fetch and each data access on a page or
   of a kind the block's previous one was not. *)
let sb_translate t (core : core) ctx ~access ~va ~size =
  let paddr =
    if not ctx.sx_paging then va
    else begin
      let slot = Tlb.probe core.tlb ~vpn:(va lsr page_shift) in
      if slot < 0 then -1
      else if not (tlb_perms_allow (Tlb.slot_perms core.tlb slot) access)
      then -1
      else begin
        ctx.sx_tslot <- slot;
        Phys_mem.page_base (Tlb.slot_ppn core.tlb slot) lor (va land page_mask)
      end
    end
  in
  if
    paddr < 0
    || paddr + size > Phys_mem.size t.mem
    || not (t.phys_check ~core ~access ~paddr)
  then -1
  else paddr

(* Data-access guard phase: the checks the stepped path would make on
   the access's address, evaluated without mutating anything
   architectural; nothing else it checks can move inside a block (the
   engine comment above). Returns the physical address, or -1 to
   side-exit — any op that would trap (bad virtual address, TLB miss or
   permission denial, bounds, isolation denial) or would split across a
   page boundary is left entirely to the stepped path, before a single
   byte moves. An access to the virtual page of the block's previous
   data access, and of its kind, reuses that access's TLB slot and
   frame without a probe or an isolation check: no block changes a TLB
   entry, and the check answers alike for every address of a page. *)
let sb_data_paddr t (core : core) ctx ~access ~vaddr ~size =
  let va = Int64.to_int vaddr in
  if
    (va land page_mask) + size > Phys_mem.page_size
    || va < 0
    || Int64.compare vaddr sb_va_limit >= 0
  then -1
  else
    let vpn = va lsr page_shift in
    if vpn = ctx.sx_dpage && access == ctx.sx_daccess then
      let paddr = ctx.sx_dframe lor (va land page_mask) in
      if paddr + size > Phys_mem.size t.mem then -1 else paddr
    else begin
      let paddr = sb_translate t core ctx ~access ~va ~size in
      if paddr >= 0 then begin
        ctx.sx_dpage <- vpn;
        ctx.sx_daccess <- access;
        ctx.sx_dframe <- paddr land lnot page_mask
      end;
      paddr
    end

(* Data-access commit: the mutating half in [step]'s order — data TLB
   hit, then the cache charge, flushing the fetch batch first so
   cache-model ticks interleave exactly as stepped. *)
let sb_commit_data t (core : core) ctx ~paddr =
  if ctx.sx_paging then begin
    Tlb.commit_hit core.tlb ctx.sx_tslot;
    Tel.Metrics.incr t.ctrs.c_tlb_hits
  end;
  sb_flush_line t core ctx;
  ctx.sx_cycles <- ctx.sx_cycles + cache_cost t core ~paddr

(* Retire and fall through; past the last slot the block exits at the
   first PC of the next page. *)
let sb_retire_continue ctx fall =
  ctx.sx_instret <- ctx.sx_instret + 1;
  ctx.sx_fuel <- ctx.sx_fuel - 1;
  if fall >= 0 then fall
  else begin
    ctx.sx_exit_pc <- Int64.add ctx.sx_vbase sb_page_size64;
    -1
  end

let sb_alu_fn (op : Isa.alu_op) : int64 -> int64 -> int64 =
  match op with
  | Add -> Int64.add
  | Sub -> Int64.sub
  | Sll -> fun a b -> Int64.shift_left a (Int64.to_int b land 63)
  | Slt -> fun a b -> if Int64.compare a b < 0 then 1L else 0L
  | Sltu -> fun a b -> if Int64.unsigned_compare a b < 0 then 1L else 0L
  | Xor -> Int64.logxor
  | Srl -> fun a b -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Sra -> fun a b -> Int64.shift_right a (Int64.to_int b land 63)
  | Or -> Int64.logor
  | And -> Int64.logand

let sb_branch_fn (op : Isa.branch_op) : int64 -> int64 -> bool =
  match op with
  | Beq -> Int64.equal
  | Bne -> fun a b -> not (Int64.equal a b)
  | Blt -> fun a b -> Int64.compare a b < 0
  | Bge -> fun a b -> Int64.compare a b >= 0
  | Bltu -> fun a b -> Int64.unsigned_compare a b < 0
  | Bgeu -> fun a b -> Int64.unsigned_compare a b >= 0

(* Compile one slot of a physical page into its closure. Everything
   that depends only on the page and the decoded instruction — own
   paddr, own cache line, fall-through and branch-target slots,
   immediates, ALU/branch operators, load/store width accessors — is
   bound at compile time; everything virtual comes from the entry-time
   [sx_vbase], so one compiled page serves any mapping that reaches
   it. The word is decoded straight from memory: a slot compiles once,
   on its first execution inside a block, and [sb_exec] enters no block
   while an ECC fault is pending, so the bytes read are the ones a
   scrubbing fetch would decode. *)
let sb_compile t ~ppn ~slot =
  let own_paddr = Phys_mem.page_base ppn lor (slot lsl 2) in
  let own_line = own_paddr lsr l1_shift in
  let fall = if slot + 1 < sb_slots then slot + 1 else -1 in
  let off = slot lsl 2 in
  match Isa.decode (Phys_mem.read_u32 t.mem own_paddr) with
  | None ->
      (* stepped path re-decodes and traps with the exact raw word *)
      sb_side_exit
  | Some instr -> (
      match (instr : Isa.t) with
      | Ecall | Ebreak ->
          (* trap delivery never happens inside a block *)
          sb_side_exit
      | Op_imm (op, rd, rs1, imm) ->
          let f = sb_alu_fn op and b = Int64.of_int imm in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            let a = if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1 in
            if rd <> 0 then Array.unsafe_set core.regs rd (f a b);
            sb_retire_continue ctx fall
      | Op (op, rd, rs1, rs2) ->
          let f = sb_alu_fn op in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            let a = if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1
            and b = if rs2 = 0 then 0L else Array.unsafe_get core.regs rs2 in
            if rd <> 0 then Array.unsafe_set core.regs rd (f a b);
            sb_retire_continue ctx fall
      | Mul (rd, rs1, rs2) ->
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            let a = if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1
            and b = if rs2 = 0 then 0L else Array.unsafe_get core.regs rs2 in
            if rd <> 0 then Array.unsafe_set core.regs rd (Int64.mul a b);
            sb_retire_continue ctx fall
      | Lui (rd, imm) ->
          let v = Int64.shift_left (Int64.of_int imm) 12 in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            if rd <> 0 then Array.unsafe_set core.regs rd v;
            sb_retire_continue ctx fall
      | Auipc (rd, imm) ->
          (* pc + (imm << 12) = sx_vbase + (off + (imm << 12)) *)
          let addend = Int64.of_int ((imm lsl 12) + off) in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            if rd <> 0 then
              Array.unsafe_set core.regs rd (Int64.add ctx.sx_vbase addend);
            sb_retire_continue ctx fall
      | Csr_read_cycle rd ->
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            (* deferred cycles materialized: fetch + dispatch already
               accumulated, exactly [step]'s read point *)
            if rd <> 0 then
              Array.unsafe_set core.regs rd
                (Int64.of_int (core.cycles + ctx.sx_cycles));
            sb_retire_continue ctx fall
      | Fence ->
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            sb_retire_continue ctx fall
      | Jal (rd, joff) ->
          let toff = off + joff in
          let target_slot =
            if toff >= 0 && toff < Phys_mem.page_size && toff land 3 = 0 then
              toff lsr 2
            else -1
          in
          let toff64 = Int64.of_int toff in
          let link_off = Int64.of_int (off + 4) in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            if rd <> 0 then
              Array.unsafe_set core.regs rd (Int64.add ctx.sx_vbase link_off);
            ctx.sx_instret <- ctx.sx_instret + 1;
            ctx.sx_fuel <- ctx.sx_fuel - 1;
            if target_slot >= 0 then target_slot
            else sb_exit_at ctx (Int64.add ctx.sx_vbase toff64)
      | Jalr (rd, rs1, imm) ->
          let imm64 = Int64.of_int imm in
          let link_off = Int64.of_int (off + 4) in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            (* target before the link write: rd may alias rs1 *)
            let target =
              Int64.logand
                (Int64.add
                   (if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1)
                   imm64)
                (Int64.lognot 1L)
            in
            if rd <> 0 then
              Array.unsafe_set core.regs rd (Int64.add ctx.sx_vbase link_off);
            ctx.sx_instret <- ctx.sx_instret + 1;
            ctx.sx_fuel <- ctx.sx_fuel - 1;
            sb_exit_at ctx target
      | Branch (op, rs1, rs2, boff) ->
          let f = sb_branch_fn op in
          let toff = off + boff in
          let target_slot =
            if toff >= 0 && toff < Phys_mem.page_size && toff land 3 = 0 then
              toff lsr 2
            else -1
          in
          let toff64 = Int64.of_int toff in
          fun ctx _ ->
            let core = ctx.sx_core in
            sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
            let a = if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1
            and b = if rs2 = 0 then 0L else Array.unsafe_get core.regs rs2 in
            ctx.sx_instret <- ctx.sx_instret + 1;
            ctx.sx_fuel <- ctx.sx_fuel - 1;
            if f a b then
              if target_slot >= 0 then target_slot
              else sb_exit_at ctx (Int64.add ctx.sx_vbase toff64)
            else if fall >= 0 then fall
            else sb_exit_at ctx (Int64.add ctx.sx_vbase sb_page_size64)
      | Load (lop, rd, rs1, imm) ->
          let size =
            match lop with
            | Lb | Lbu -> 1
            | Lh | Lhu -> 2
            | Lw | Lwu -> 4
            | Ld -> 8
          in
          let read : Phys_mem.t -> int -> int64 =
            match lop with
            | Lb ->
                fun mem p ->
                  Int64.of_int
                    (Sanctorum_util.Bits.sign_extend (Phys_mem.read_u8 mem p)
                       ~width:8)
            | Lbu -> fun mem p -> Int64.of_int (Phys_mem.read_u8 mem p)
            | Lh ->
                fun mem p ->
                  Int64.of_int
                    (Sanctorum_util.Bits.sign_extend (Phys_mem.read_u16 mem p)
                       ~width:16)
            | Lhu -> fun mem p -> Int64.of_int (Phys_mem.read_u16 mem p)
            | Lw -> fun mem p -> Int64.of_int32 (Phys_mem.read_u32 mem p)
            | Lwu ->
                fun mem p ->
                  Int64.logand
                    (Int64.of_int32 (Phys_mem.read_u32 mem p))
                    0xffffffffL
            | Ld -> Phys_mem.read_u64
          in
          let imm64 = Int64.of_int imm in
          fun ctx slot ->
            let core = ctx.sx_core in
            let vaddr =
              Int64.add
                (if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1)
                imm64
            in
            let dp = sb_data_paddr t core ctx ~access:Trap.Read ~vaddr ~size in
            if dp < 0 then sb_side_exit ctx slot
            else begin
              sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
              sb_commit_data t core ctx ~paddr:dp;
              let v = read t.mem dp in
              if rd <> 0 then Array.unsafe_set core.regs rd v;
              sb_retire_continue ctx fall
            end
      | Store (sop, rs2, rs1, imm) ->
          let size = match sop with Sb -> 1 | Sh -> 2 | Sw -> 4 | Sd -> 8 in
          let write : Phys_mem.t -> int -> int64 -> unit =
            match sop with
            | Sb ->
                fun mem p v ->
                  Phys_mem.write_u8 mem p (Int64.to_int v land 0xff)
            | Sh ->
                fun mem p v ->
                  Phys_mem.write_u16 mem p (Int64.to_int v land 0xffff)
            | Sw -> fun mem p v -> Phys_mem.write_u32 mem p (Int64.to_int32 v)
            | Sd -> fun mem p v -> Phys_mem.write_u64 mem p v
          in
          let imm64 = Int64.of_int imm in
          (* fall-through PC, also the resume PC when the store dirties
             its own page: off + 4 = page size on the last slot *)
          let next_off64 = Int64.of_int (off + 4) in
          fun ctx slot ->
            let core = ctx.sx_core in
            let vaddr =
              Int64.add
                (if rs1 = 0 then 0L else Array.unsafe_get core.regs rs1)
                imm64
            in
            let dp = sb_data_paddr t core ctx ~access:Trap.Write ~vaddr ~size in
            if dp < 0 then sb_side_exit ctx slot
            else begin
              sb_account_fetch t core ctx ~paddr:own_paddr ~line:own_line;
              sb_commit_data t core ctx ~paddr:dp;
              write t.mem dp
                (if rs2 = 0 then 0L else Array.unsafe_get core.regs rs2);
              ctx.sx_instret <- ctx.sx_instret + 1;
              ctx.sx_fuel <- ctx.sx_fuel - 1;
              (* a store into this very frame may have rewritten code
                 compiled here: never run another closure from it *)
              if fall >= 0 && dp lsr page_shift <> ppn then fall
              else sb_exit_at ctx (Int64.add ctx.sx_vbase next_off64)
            end)

(* Lazily compiled page of frame [ppn] at generation [gen]: every slot
   starts as a shared build closure that compiles itself on first
   execution, replaces the slot, and tail-runs the result. *)
let sb_new_page t ppn gen =
  let code = Array.make sb_slots sb_side_exit in
  let build ctx slot =
    let f = sb_compile t ~ppn ~slot in
    code.(slot) <- f;
    f ctx slot
  in
  Array.fill code 0 sb_slots build;
  { sb_code = code; sb_gen = gen }

(* Superblock entry, called from [run] only with the fast path on, no
   fault hooks and no pending interrupt. Returns instructions retired
   (at most [fuel]); 0 = stepped takeover. The entry translates its own
   PC: it must be aligned and in range with no ECC fault pending, and
   its fetch must pass [sb_translate] — a TLB hit with execute
   permission, in bounds, allowed by the isolation check. A walk or a
   fetch trap is left to [step]. The frame's compiled page is reused
   while the frame's generation equals the page's and made afresh
   otherwise; an entry slot already compiled to [sb_side_exit] (ecall,
   ebreak, an undecodable word) would retire nothing, so it is left to
   [step] without setting up a block. An armed timer bounds the block's
   deferred cycles (the engine comment above); a due one returns 0 so
   that [step] delivers it. *)
let sb_exec t (core : core) ~fuel =
  let deadline =
    match core.timer_cmp with Some c -> c - core.cycles | None -> max_int
  in
  let va = Int64.to_int core.pc in
  let ctx = t.sb_ctxs.(core.id) in
  ctx.sx_paging <- Option.is_some core.satp_root;
  let fp0 =
    if
      deadline <= 0
      || va land 3 <> 0
      || va < 0
      || Int64.compare core.pc sb_va_limit >= 0
      || Phys_mem.pending_faults t.mem > 0
    then -1
    else sb_translate t core ctx ~access:Trap.Execute ~va ~size:4
  in
  let code =
    if fp0 < 0 then [||]
    else
      let ppn = fp0 lsr page_shift in
      let gen = Phys_mem.generation t.mem ppn in
      match t.sb_pages.(ppn) with
      | Some p when p.sb_gen = gen -> p.sb_code
      | _ ->
          let p = sb_new_page t ppn gen in
          t.sb_pages.(ppn) <- Some p;
          p.sb_code
  in
  let slot0 = (fp0 land page_mask) lsr 2 in
  if fp0 < 0 || code.(slot0) == sb_side_exit then 0
  else begin
    ctx.sx_vbase <- Int64.sub core.pc (Int64.of_int (fp0 land page_mask));
    ctx.sx_dpage <- -1;
    ctx.sx_fuel <- fuel;
    ctx.sx_exit_pc <- core.pc;
    ctx.sx_cycles <- 0;
    ctx.sx_instret <- 0;
    ctx.sx_line <- -1;
    ctx.sx_line_rep <- 0;
    ctx.sx_side_exit <- false;
    let slot = ref slot0 in
    let running = ref true in
    while !running do
      if ctx.sx_fuel <= 0 || ctx.sx_cycles >= deadline then begin
        ctx.sx_exit_pc <- Int64.add ctx.sx_vbase (Int64.of_int (!slot lsl 2));
        running := false
      end
      else begin
        let next = (Array.unsafe_get code !slot) ctx !slot in
        if next >= 0 then slot := next else running := false
      end
    done;
    sb_flush_line t core ctx;
    core.pc <- ctx.sx_exit_pc;
    core.cycles <- core.cycles + ctx.sx_cycles;
    core.instret <- core.instret + ctx.sx_instret;
    let c = t.ctrs in
    if ctx.sx_instret > 0 then begin
      Tel.Metrics.add c.c_instret ctx.sx_instret;
      if ctx.sx_paging then Tel.Metrics.add c.c_tlb_hits ctx.sx_instret;
      Tel.Metrics.incr c.c_sb_blocks;
      Tel.Metrics.add c.c_sb_instret ctx.sx_instret
    end;
    if ctx.sx_side_exit then Tel.Metrics.incr c.c_sb_side_exits;
    ctx.sx_instret
  end

let run t ~core ~fuel =
  let c = t.cores.(core) in
  let start = c.instret in
  let budget = ref fuel in
  while (not c.halted) && !budget > 0 do
    let before = c.instret in
    let tier =
      t.fast_path && t.fault_hooks = None && Queue.is_empty c.pending_interrupts
    in
    if not (tier && sb_exec t c ~fuel:!budget > 0) then step t c;
    (* Trap deliveries retire no instruction; still consume fuel so a
       fault loop cannot hang the simulation. *)
    let retired = c.instret - before in
    budget := if retired > 1 then !budget - retired else !budget - 1
  done;
  c.instret - start

let trace_dma t ~write ~paddr ~len ~granted =
  if Tel.Sink.enabled t.sink then begin
    Tel.Sink.incr_counter t.sink
      (if not granted then "hw.dma.rejected"
       else if write then "hw.dma.writes"
       else "hw.dma.reads");
    Tel.Sink.emit t.sink ~core:(-1) ~cycles:(now t)
      (Tel.Event.Dma_transfer { write; paddr; len; granted })
  end

let dma_write t ~paddr data =
  let len = String.length data in
  if not (t.dma_check ~paddr ~len) then begin
    trace_dma t ~write:true ~paddr ~len ~granted:false;
    Error (Trap.Access_fault (Trap.Write, Int64.of_int paddr))
  end
  else if paddr < 0 || paddr + len > Phys_mem.size t.mem then
    Error (Trap.Access_fault (Trap.Write, Int64.of_int paddr))
  else begin
    match ecc_check_exn t ~core_id:(-1) ~cycles:(now t) ~pos:paddr ~len with
    | exception Fault f ->
        trace_dma t ~write:true ~paddr ~len ~granted:false;
        Error f
    | () ->
        trace_dma t ~write:true ~paddr ~len ~granted:true;
        Phys_mem.write_string t.mem ~pos:paddr data;
        Ok ()
  end

let dma_read t ~paddr ~len =
  if not (t.dma_check ~paddr ~len) then begin
    trace_dma t ~write:false ~paddr ~len ~granted:false;
    Error (Trap.Access_fault (Trap.Read, Int64.of_int paddr))
  end
  else if paddr < 0 || len < 0 || paddr + len > Phys_mem.size t.mem then
    Error (Trap.Access_fault (Trap.Read, Int64.of_int paddr))
  else begin
    match ecc_check_exn t ~core_id:(-1) ~cycles:(now t) ~pos:paddr ~len with
    | exception Fault f ->
        trace_dma t ~write:false ~paddr ~len ~granted:false;
        Error f
    | () ->
        trace_dma t ~write:false ~paddr ~len ~granted:true;
        Ok (Phys_mem.read_string t.mem ~pos:paddr ~len)
  end
