(* The simulator's host-side fast path (the superblock tier over the
   stepped reference pipeline, allocation-free TLB/cache lookups) must
   be architecturally invisible: with the fast path on and off, the
   same program produces bit-identical instret, cycles, registers, PC,
   trap sequences and hw.* counters (the machine's one count of TLB,
   cache, page-walk and retire events, read from a metrics sink
   attached to each machine). The qcheck properties below
   prove it over random programs that include self-modifying stores
   into their own code page, DMA writes into code, zeroed code words
   (as a region clean zeroes them), injected ECC faults
   (correctable and uncorrectable), posted interrupts, armed
   preemption timers and isolation checks that refuse chosen pages —
   every event class that can invalidate a compiled page, make a
   block's entry translation decline, cut a superblock short, or deny
   one of its accesses. *)

module Hw = Sanctorum_hw
module Tel = Sanctorum_telemetry
module Pf = Sanctorum_platform
module Img = Sanctorum.Image
open Sanctorum_os

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Harness *)

let bare_machine () =
  let m =
    Hw.Machine.create
      { Hw.Machine.default_config with cores = 1; mem_bytes = 1024 * 1024 }
  in
  let last = ref None in
  Hw.Machine.set_trap_handler m (fun _ c cause ->
      last := Some cause;
      c.Hw.Machine.halted <- true);
  (m, last)

let exec_at m pos =
  let c = Hw.Machine.core m 0 in
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.pc <- Int64.of_int pos;
  c.Hw.Machine.halted <- false;
  ignore (Hw.Machine.run m ~core:0 ~fuel:10_000);
  c

let run_at m pos prog =
  Hw.Phys_mem.write_string (Hw.Machine.mem m) ~pos
    (Hw.Isa.encode_program prog);
  exec_at m pos

(* A metrics sink for [m]'s hw.* counters, which count into its
   registry from here on. *)
let arm_metrics m =
  let metrics = Tel.Metrics.create () in
  Hw.Machine.set_sink m (Tel.Sink.create ~metrics ());
  metrics

let is_sb_counter name =
  String.length name >= 6 && String.sub name 0 6 = "hw.sb."

(* Every registered counter except the host-side hw.sb.* diagnostics,
   which are the one family allowed to differ across tiers. *)
let counter_snapshot metrics =
  List.filter_map
    (fun (name, item) ->
      match item with
      | Tel.Metrics.Counter c when not (is_sb_counter name) ->
          Some (name, Tel.Metrics.value c)
      | _ -> None)
    (Tel.Metrics.to_list metrics)

let sb_instret_of metrics =
  match Tel.Metrics.find metrics "hw.sb.instret" with
  | Some (Tel.Metrics.Counter c) -> Tel.Metrics.value c
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Self-modifying code: the compiled pages' sharpest edge. A program
   that overwrites an instruction must execute the new bytes, even
   when the old bytes were already fetched, decoded and compiled. *)

let test_smc_inline_store () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  (* Straight-line program that patches its own next instruction. *)
  let enc_new = Int32.to_int (encode (Op_imm (Add, a0, zero, 777))) in
  let prefix = li t1 enc_new @ li t0 0x1000 in
  let placeholder_idx = List.length prefix + 1 in
  let prog =
    prefix
    @ [
        Store (Sw, t1, t0, 4 * placeholder_idx);
        Op_imm (Add, a0, zero, 1) (* overwritten before it is fetched *);
        Ecall;
      ]
  in
  let c = run_at m 0x1000 prog in
  check_i64 "patched instruction executed" 777L (Hw.Machine.read_reg c Hw.Isa.a0)

let test_smc_store_after_decode () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  (* Execute the target first so its slot is definitely compiled... *)
  let c = run_at m 0x1000 [ Op_imm (Add, a0, zero, 1); Ecall ] in
  check_i64 "original executed" 1L (Hw.Machine.read_reg c Hw.Isa.a0);
  (* ...then patch it with a store from a different page... *)
  let enc_new = Int32.to_int (encode (Op_imm (Add, a0, zero, 99))) in
  let patcher =
    li t1 enc_new @ li t0 0x1000 @ [ Store (Sw, t1, t0, 0); Ecall ]
  in
  ignore (run_at m 0x2000 patcher);
  (* ...and re-run the (unrewritten) target page. *)
  let c = exec_at m 0x1000 in
  check_i64 "stale decode dropped after store" 99L
    (Hw.Machine.read_reg c Hw.Isa.a0)

let test_smc_dma () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  let c = run_at m 0x1000 [ Op_imm (Add, a0, zero, 1); Ecall ] in
  check_i64 "original executed" 1L (Hw.Machine.read_reg c Hw.Isa.a0);
  (match
     Hw.Machine.dma_write m ~paddr:0x1000
       (encode_program [ Op_imm (Add, a0, zero, 55) ])
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "dma_write refused");
  let c = exec_at m 0x1000 in
  check_i64 "stale decode dropped after DMA write" 55L
    (Hw.Machine.read_reg c Hw.Isa.a0)

let test_flip_invalidates_decode () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  let c = run_at m 0x1000 [ Op_imm (Add, a0, zero, 5); Ecall ] in
  check_i64 "original executed" 5L (Hw.Machine.read_reg c Hw.Isa.a0);
  (* A single-bit flip in the cached instruction word: the next fetch
     must not execute the stale decode, and ECC corrects the word back
     to the original bytes — so the original result, not garbage. *)
  Hw.Phys_mem.inject_bit_flip (Hw.Machine.mem m) ~paddr:0x1000 ~bit:3;
  let c = exec_at m 0x1000 in
  check_i64 "corrected word re-decoded" 5L (Hw.Machine.read_reg c Hw.Isa.a0);
  check_int "fault scrubbed" 0
    (Hw.Phys_mem.pending_faults (Hw.Machine.mem m))

(* ------------------------------------------------------------------ *)
(* post_interrupt is a FIFO queue: delivery order is posting order. *)

let test_interrupt_fifo_order () =
  let m, _ = bare_machine () in
  let order = ref [] in
  Hw.Machine.set_trap_handler m (fun _ c cause ->
      match cause with
      | Hw.Trap.Interrupt irq -> order := irq :: !order
      | Hw.Trap.Exception Hw.Trap.Ecall_user -> c.Hw.Machine.halted <- true
      | _ -> c.Hw.Machine.halted <- true);
  Hw.Phys_mem.write_string (Hw.Machine.mem m) ~pos:0x1000
    (Hw.Isa.encode_program [ Hw.Isa.nop; Hw.Isa.nop; Hw.Isa.Ecall ]);
  Hw.Machine.post_interrupt m ~core:0 Hw.Trap.Software;
  Hw.Machine.post_interrupt m ~core:0 (Hw.Trap.External 7);
  Hw.Machine.post_interrupt m ~core:0 (Hw.Trap.External 3);
  Hw.Machine.post_interrupt m ~core:0 Hw.Trap.Software;
  ignore (exec_at m 0x1000);
  Alcotest.(check (list string))
    "FIFO delivery"
    [ "irq-software"; "irq-external"; "irq-external"; "irq-software" ]
    (List.rev_map
       (fun irq -> Hw.Trap.cause_label (Hw.Trap.Interrupt irq))
       !order);
  (* External irq payloads kept their order too *)
  check_bool "payload order" true
    (List.rev !order
    = [
        Hw.Trap.Software; Hw.Trap.External 7; Hw.Trap.External 3;
        Hw.Trap.Software;
      ])

(* ------------------------------------------------------------------ *)
(* [Tlb.find] stays exact under the early-exit + MRU rewrite: a hit on
   the MRU path and on the scan path, and a miss after eviction or
   flush, each answer what a full scan would. *)

let test_tlb_find_exact () =
  let t = Hw.Tlb.create ~entries:2 in
  let p = { Hw.Tlb.r = true; w = false; x = true; u = true } in
  check_int "miss on empty" (-1) (Hw.Tlb.find t ~vpn:5);
  Hw.Tlb.insert t ~vpn:5 ~ppn:50 ~perms:p;
  let i5 = Hw.Tlb.find t ~vpn:5 in
  check_bool "hit on vpn 5" true (i5 >= 0);
  check_int "ppn preserved" 50 (Hw.Tlb.slot_ppn t i5);
  check_bool "perms preserved" true (Hw.Tlb.slot_perms t i5 = p);
  check_int "MRU-path hit" i5 (Hw.Tlb.find t ~vpn:5);
  Hw.Tlb.insert t ~vpn:6 ~ppn:60 ~perms:p;
  check_bool "hit on vpn 6" true (Hw.Tlb.find t ~vpn:6 >= 0);
  check_int "non-MRU scan hit" i5 (Hw.Tlb.find t ~vpn:5);
  Hw.Tlb.insert t ~vpn:7 ~ppn:70 ~perms:p (* round-robin evicts vpn 5 *);
  check_int "evicted" (-1) (Hw.Tlb.find t ~vpn:5);
  let i = Hw.Tlb.find t ~vpn:7 in
  check_bool "find hit" true (i >= 0);
  check_int "slot_ppn" 70 (Hw.Tlb.slot_ppn t i);
  Hw.Tlb.flush t;
  check_int "post-flush miss" (-1) (Hw.Tlb.find t ~vpn:7)

(* MRU and LRU through the allocation-free access path. *)
let test_cache_access_hit_lru () =
  let cfg = { Hw.Cache.default_l1 with Hw.Cache.sets = 4; ways = 2 } in
  let c = Hw.Cache.create cfg in
  check_bool "first access misses" false (Hw.Cache.access_hit c ~paddr:0x1000);
  check_bool "second access hits" true (Hw.Cache.access_hit c ~paddr:0x1000);
  check_bool "MRU-path hit" true (Hw.Cache.access_hit c ~paddr:0x1000);
  let addr tag = tag * 4 * 64 in
  ignore (Hw.Cache.access_hit c ~paddr:(addr 1)) (* same set, way 2 *);
  ignore (Hw.Cache.access_hit c ~paddr:0x1000) (* touch first line *);
  ignore (Hw.Cache.access_hit c ~paddr:(addr 2)) (* evicts LRU = addr 1 *);
  check_bool "LRU victim evicted" false (Hw.Cache.probe c ~paddr:(addr 1));
  check_bool "MRU survivor resident" true (Hw.Cache.probe c ~paddr:0x1000)

(* ------------------------------------------------------------------ *)
(* ecc_check_exn batches the corrected counter: one scrub correcting n
   words adds n in a single [Metrics.add]. *)

let test_ecc_corrected_batch () =
  let metrics = Tel.Metrics.create () in
  let sink = Tel.Sink.create ~metrics () in
  let m =
    Hw.Machine.create
      { Hw.Machine.default_config with cores = 1; mem_bytes = 64 * 1024 }
  in
  Hw.Machine.set_sink m sink;
  let mem = Hw.Machine.mem m in
  Hw.Phys_mem.inject_bit_flip mem ~paddr:0x3000 ~bit:2;
  Hw.Phys_mem.inject_bit_flip mem ~paddr:0x3008 ~bit:40;
  Hw.Phys_mem.inject_bit_flip mem ~paddr:0x3010 ~bit:7;
  (match Hw.Machine.dma_read m ~paddr:0x3000 ~len:24 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "dma_read refused");
  (match Tel.Metrics.find metrics "hw.ecc.corrected" with
  | Some (Tel.Metrics.Counter c) ->
      check_int "one scrub of 3 words counts 3" 3 (Tel.Metrics.value c)
  | _ -> Alcotest.fail "hw.ecc.corrected not registered");
  check_int "faults cleared" 0
    (Hw.Phys_mem.pending_faults (Hw.Machine.mem m))

(* ------------------------------------------------------------------ *)
(* The differential property. *)

type mode = Bare | Paged

type op =
  | Alu of int * int * int * int
  | Alu_imm of int * int * int * int
  | Load_data of int * int * int
  | Store_data of int * int * int
  | Load_cross of int * int * int (* page-boundary-straddling load *)
  | Store_cross of int * int * int (* page-boundary-straddling store *)
  | Store_code of int * int
  | Branch_fwd of int * int * int * int
  | Jal_fwd of int
  | Jalr_mis of int (* indirect jump, target possibly 2-misaligned *)
  | Read_cycle of int
  | Wild_load of int
  | Loop_back of int * int
      (* decrement the loop counter and branch back 1-4 slots before
         the op while it stays positive, so a block reruns slots it
         has run; half of these first rewrite the slot they loop to *)
  | Break

type event =
  | Flip of int * int (* correctable: one bit of one word *)
  | Flip2 of int * int (* uncorrectable: two bits of one word *)
  | Dma of int * int (* write one word into the code page *)
  | Zero of int * int
      (* zero a few words of the code page, as a region clean does *)
  | Irq of int
  | Timer of int (* arm the preemption timer this many cycles ahead *)
  | Deny of int * int
      (* from here on refuse (page, access): the code page or one of
         the two data pages; read, write or execute *)

let alu_ops =
  Hw.Isa.[| Add; Sub; Sll; Slt; Sltu; Xor; Srl; Sra; Or; And |]

let branch_ops = Hw.Isa.[| Beq; Bne; Blt; Bge; Bltu; Bgeu |]
let load_ops = Hw.Isa.[| Lb; Lh; Lw; Ld; Lbu; Lhu; Lwu |]
let store_ops = Hw.Isa.[| Sb; Sh; Sw; Sd |]

let regs_pool = Hw.Isa.[| a0; a1; a2; a3; a4; a5; t2; t3; t4 |]

(* No op but [Loop_back]'s decrement writes the counter, which starts
   each run at [loop_budget], so the loops branch back at most three
   times in all (random words aside: the drives cap every run). *)
let loop_counter = Hw.Isa.a7
let loop_budget = 4L

(* Stores into code target the program image's first 96 words, which
   hold all of it unless a case draws a great many [Loop_back]s (two
   or three words each), so self-modification can hit already-executed,
   cached and not-yet-fetched instructions alike. *)
let code_words = 96

let instr_of_op op =
  let open Hw.Isa in
  let r i = regs_pool.(i mod Array.length regs_pool) in
  let data_off size raw =
    let off = raw mod 2040 in
    (* mostly aligned, sometimes deliberately misaligned *)
    if raw mod 11 = 0 then off else off / size * size
  in
  match op with
  | Alu (o, rd, r1, r2) -> Op (alu_ops.(o mod 10), r rd, r r1, r r2)
  | Alu_imm (o, rd, r1, imm) -> (
      match alu_ops.(o mod 10) with
      | (Sll | Srl | Sra) as sop -> Op_imm (sop, r rd, r r1, imm land 63)
      | Sub (* subi does not exist *) | Add ->
          Op_imm (Add, r rd, r r1, (imm mod 1024) - 512)
      | aop -> Op_imm (aop, r rd, r r1, (imm mod 1024) - 512))
  | Load_data (s, rd, off) ->
      (* either data page: t1 and s0 hold their bases *)
      let lop = load_ops.(s mod 7) in
      let size = match lop with Lb | Lbu -> 1 | Lh | Lhu -> 2 | Lw | Lwu -> 4 | Ld -> 8 in
      let base = if s / 7 land 1 = 0 then t1 else s0 in
      Load (lop, r rd, base, data_off size off)
  | Store_data (s, rs, off) ->
      let sop = store_ops.(s mod 4) in
      let size = match sop with Sb -> 1 | Sh -> 2 | Sw -> 4 | Sd -> 8 in
      let base = if s / 4 land 1 = 0 then t1 else s0 in
      Store (sop, r rs, base, data_off size off)
  | Load_cross (s, rd, off) ->
      (* s0/s1 hold the first and second page boundaries past the data
         base; a wide access a few bytes below either straddles it *)
      Load (load_ops.(s mod 7), r rd,
            (if off land 8 = 0 then s0 else s1),
            -(1 + (off mod 7)))
  | Store_cross (s, rs, off) ->
      Store (store_ops.(s mod 4), r rs,
             (if off land 8 = 0 then s0 else s1),
             -(1 + (off mod 7)))
  | Store_code (rs, w) -> Store (Sw, r rs, t0, w mod code_words * 4)
  | Branch_fwd (o, r1, r2, skip) ->
      Branch (branch_ops.(o mod 6), r r1, r r2, 4 * (2 + (skip mod 2)))
  | Jal_fwd skip -> Jal (t5, 4 * (2 + (skip mod 2)))
  | Jalr_mis raw ->
      (* even offsets 0..510 into the code page: bit 1 survives JALR's
         bit-0 clearing, so half of these targets are 2-misaligned *)
      Jalr (t5, t0, raw land 0x1fe)
  | Read_cycle rd -> Csr_read_cycle (r rd)
  | Wild_load rd -> Load (Ld, r rd, a6, 0)
  | Loop_back (back, w) ->
      (* the last of the op's instructions (see [instrs_of_op]) *)
      Branch (Blt, zero, loop_counter, -4 * (2 + (w land 1) + (back mod 4)))
  | Break -> Ebreak

(* The op whose first instruction sits at [slot]. A [Loop_back] is its
   counter's decrement and then its branch, and with bit 0 of [w] set,
   before both, a store of a pool register over the slot it loops to:
   the branch then reruns a slot the block compiled before the store. *)
let instrs_of_op ~slot op =
  match op with
  | Loop_back (back, w) ->
      let open Hw.Isa in
      let start = slot - 1 - (back mod 4) in
      let rs = regs_pool.((w lsr 1) mod Array.length regs_pool) in
      (if w land 1 = 1 then [ Store (Sw, rs, t0, 4 * start) ] else [])
      @ [ Op_imm (Add, loop_counter, loop_counter, -1); instr_of_op op ]
  | op -> [ instr_of_op op ]

let apply_event m ~code_base ~data_base ~deny ev =
  match ev with
  | Flip (w, bit) ->
      let base = if w < 64 then code_base else data_base in
      Hw.Phys_mem.inject_bit_flip (Hw.Machine.mem m)
        ~paddr:(base + (w mod 64 * 8))
        ~bit:(bit mod 63)
  | Flip2 (w, bit) ->
      let base = if w < 64 then code_base else data_base in
      let paddr = base + (w mod 64 * 8) in
      let bit = bit mod 62 in
      Hw.Phys_mem.inject_bit_flip (Hw.Machine.mem m) ~paddr ~bit;
      Hw.Phys_mem.inject_bit_flip (Hw.Machine.mem m) ~paddr ~bit:(bit + 1)
  | Dma (w, v) ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 (Int32.of_int v);
      ignore
        (Hw.Machine.dma_write m
           ~paddr:(code_base + (w mod code_words * 4))
           (Bytes.to_string b))
  | Zero (w, n) ->
      let w = w mod code_words in
      Hw.Phys_mem.zero_range (Hw.Machine.mem m)
        ~pos:(code_base + (4 * w))
        ~len:(4 * min (1 + n) (code_words - w))
  | Irq n ->
      Hw.Machine.post_interrupt m ~core:0
        (if n mod 3 = 0 then Hw.Trap.Software else Hw.Trap.External (n mod 7))
  | Timer n ->
      let c = Hw.Machine.core m 0 in
      c.Hw.Machine.timer_cmp <- Some (c.Hw.Machine.cycles + n)
  | Deny (p, a) -> deny p a

(* How to drive the machine. Both drives go through [Machine.run], the
   only entry point where the superblock tier engages ([Machine.step]
   runs the same reference code with the fast path on or off).
   [Per_instruction] calls it with [~fuel:1]: events land between any
   two instructions, and with the tier on every instruction is its own
   block entry, so the entry's translation and guards face every pc
   the program reaches. [Chunked] calls it with a cycled list of small
   fuel slices (events land at chunk boundaries), so blocks run long.
   All machines of a differential group use the same drive, so
   injection points are architecturally identical. *)
type drive = Per_instruction | Chunked of int list

(* The two execution tiers under differential test. [Super] is the
   default configuration (the superblock tier on); [Slow] is the
   stepped reference pipeline alone. *)
type tier = Slow | Super

let set_tier m = function
  | Slow -> Hw.Machine.set_fast_path m false
  | Super -> ()

(* Run one machine to completion (or the step cap) and snapshot every
   piece of architectural state the fast tiers could disturb, and the
   counters of a metrics sink armed from the start. *)
let run_one ~tier ~drive ~mode ~ops ~events ~raws =
  let m =
    Hw.Machine.create
      { Hw.Machine.default_config with cores = 1; mem_bytes = 1024 * 1024 }
  in
  set_tier m tier;
  let metrics = arm_metrics m in
  let traps = ref [] in
  Hw.Machine.set_trap_handler m (fun _ c cause ->
      (* stamped with where it landed: a tier that delivers a timer one
         instruction late changes nothing else in this harness *)
      traps :=
        Format.asprintf "%a@@pc=0x%Lx,instret=%d,cycles=%d" Hw.Trap.pp_cause
          cause c.Hw.Machine.pc c.Hw.Machine.instret c.Hw.Machine.cycles
        :: !traps;
      match cause with
      | Hw.Trap.Exception Hw.Trap.Ecall_user -> c.Hw.Machine.halted <- true
      | Hw.Trap.Exception (Hw.Trap.Instruction_address_misaligned _) ->
          (* realign before skipping, or the retry would trap forever *)
          c.Hw.Machine.pc <-
            Int64.add (Int64.logand c.Hw.Machine.pc (Int64.lognot 3L)) 4L
      | Hw.Trap.Exception _ ->
          (* emulate a handler that skips the faulting instruction *)
          c.Hw.Machine.pc <- Int64.add c.Hw.Machine.pc 4L
      | Hw.Trap.Interrupt _ -> ());
  let mem = Hw.Machine.mem m in
  let c = Hw.Machine.core m 0 in
  let code_base, data_base, wild =
    match mode with
    | Bare -> (0x4000, 0x8000, 1024 * 1024)
    | Paged ->
        (* Identity-mapped code (rwx) and data (rw) pages, so physical
           event addresses coincide with the virtual bases; 0x30000 is
           left unmapped for page faults. *)
        let next = ref 0x40 in
        let alloc () =
          let p = !next in
          incr next;
          p
        in
        let root = alloc () in
        let map vaddr ppn perms =
          Hw.Page_table.map mem ~root_ppn:root ~vaddr ~ppn ~perms
            ~alloc_table:alloc
        in
        map 0x10000 0x10
          { Hw.Page_table.r = true; w = true; x = true; u = true };
        map 0x20000 0x20
          { Hw.Page_table.r = true; w = true; x = false; u = true };
        (* second data page in a non-adjacent frame, so page-crossing
           accesses must split-translate; 0x22000 stays unmapped so a
           cross out of it faults *)
        map 0x21000 0x28
          { Hw.Page_table.r = true; w = true; x = false; u = true };
        c.Hw.Machine.satp_root <- Some root;
        (0x10000, 0x20000, 0x30000)
  in
  (* The frames of the code page and of the two data pages, which the
     Deny events refuse pages among, and the check they install: one
     answer per page and access kind, as [set_phys_check] requires.
     The next block entry checks afresh. *)
  let frames =
    let page = Hw.Phys_mem.page_size in
    match mode with
    | Bare -> [| code_base / page; data_base / page; (data_base / page) + 1 |]
    | Paged -> [| 0x10; 0x20; 0x28 |]
  in
  let denied = ref [] in
  let deny p a =
    let access = Hw.Trap.[| Read; Write; Execute |].(a mod 3) in
    denied := (frames.(p mod 3), access) :: !denied;
    let refused = !denied in
    Hw.Machine.set_phys_check m (fun ~core:_ ~access ~paddr ->
        not (List.mem (paddr / Hw.Phys_mem.page_size, access) refused))
  in
  let open Hw.Isa in
  let page = Hw.Phys_mem.page_size in
  let prologue =
    li t0 code_base @ li t1 data_base @ li a6 wild
    @ li s0 (data_base + page)
    @ li s1 (data_base + (2 * page))
  in
  let plen = List.length prologue in
  let rec body slot = function
    | [] -> []
    | op :: ops ->
        let is = instrs_of_op ~slot op in
        is @ body (slot + List.length is) ops
  in
  let program =
    prologue @ body plen ops @ [ Ecall; Ecall; Ecall; Ecall; Ecall ]
  in
  Hw.Phys_mem.write_string mem ~pos:code_base (encode_program program);
  List.iter
    (fun (idx, word) ->
      (* raw words (mostly undecodable) dropped into the body *)
      let slot = plen + (idx mod (code_words - plen)) in
      Hw.Phys_mem.write_u32 mem (code_base + (4 * slot)) (Int32.of_int word))
    raws;
  c.Hw.Machine.pc <- Int64.of_int code_base;
  c.Hw.Machine.regs.(loop_counter) <- loop_budget;
  (match drive with
  | Per_instruction ->
      let steps = ref 0 in
      while (not c.Hw.Machine.halted) && !steps < 1500 do
        List.iter
          (fun (k, ev) ->
            if k = !steps then apply_event m ~code_base ~data_base ~deny ev)
          events;
        ignore (Hw.Machine.run m ~core:0 ~fuel:1);
        incr steps
      done
  | Chunked chunks ->
      let chunks = Array.of_list chunks in
      let n = Array.length chunks in
      let i = ref 0 in
      while (not c.Hw.Machine.halted) && !i < 400 do
        List.iter
          (fun (k, ev) ->
            if k = !i then apply_event m ~code_base ~data_base ~deny ev)
          events;
        ignore
          (Hw.Machine.run m ~core:0 ~fuel:(1 + (chunks.(!i mod n) land 63)));
        incr i
      done);
  ( c.Hw.Machine.instret,
    c.Hw.Machine.cycles,
    c.Hw.Machine.pc,
    Array.to_list c.Hw.Machine.regs,
    counter_snapshot metrics,
    List.rev !traps,
    Hw.Phys_mem.pending_faults mem )

let case_gen =
  let open QCheck2.Gen in
  let sm = int_bound 4095 in
  (* in-page loads and stores weigh three, so that blocks often read
     and write a page a denial refuses *)
  let op_gen =
    frequency
      [
        (1, map2 (fun (a, b) (c, d) -> Alu (a, b, c, d)) (pair sm sm)
              (pair sm sm));
        (1, map2 (fun (a, b) (c, d) -> Alu_imm (a, b, c, d)) (pair sm sm)
              (pair sm sm));
        (3, map3 (fun a b c -> Load_data (a, b, c)) sm sm sm);
        (3, map3 (fun a b c -> Store_data (a, b, c)) sm sm sm);
        (1, map3 (fun a b c -> Load_cross (a, b, c)) sm sm sm);
        (1, map3 (fun a b c -> Store_cross (a, b, c)) sm sm sm);
        (1, map2 (fun a b -> Store_code (a, b)) sm sm);
        (1, map2 (fun (a, b) (c, d) -> Branch_fwd (a, b, c, d)) (pair sm sm)
              (pair sm sm));
        (1, map (fun a -> Jal_fwd a) sm);
        (1, map (fun a -> Jalr_mis a) sm);
        (1, map (fun a -> Read_cycle a) sm);
        (1, map (fun a -> Wild_load a) sm);
        (1, map2 (fun a b -> Loop_back (a, b)) sm sm);
        (1, pure Break);
      ]
  in
  let deny_gen = map2 (fun p a -> Deny (p, a)) (int_bound 2) (int_bound 2) in
  let zero_gen = map2 (fun w n -> Zero (w, n)) (int_bound 95) (int_bound 7) in
  let event_gen =
    oneof
      [
        map2 (fun w b -> Flip (w, b)) (int_bound 127) (int_bound 62);
        map2 (fun w b -> Flip2 (w, b)) (int_bound 127) (int_bound 61);
        map2 (fun w v -> Dma (w, v)) (int_bound 95) (int_bound 0xFFFFFF);
        zero_gen;
        map (fun n -> Irq n) (int_bound 7);
        map (fun n -> Timer n) (int_bound 300);
        deny_gen;
      ]
  in
  (* Denials and zeroed code words also land early, before most of the
     program has run, so that a later backward jump meets a zeroed word
     it has run before; denials mostly refuse writes to a data page, so
     that a block reads a page and then writes it. *)
  let early ev =
    pair (frequency [ (2, int_bound 3); (1, int_range 10 60) ]) ev
  in
  let early_deny =
    early
      (frequency
         [ (2, map (fun p -> Deny (1 + p, 1)) (int_bound 1)); (1, deny_gen) ])
  in
  let events =
    map3
      (fun a b c -> a @ b @ c)
      (list_size (int_range 0 6) (pair (int_bound 400) event_gen))
      (list_size (int_range 0 2) early_deny)
      (list_size (int_range 0 2) (early zero_gen))
  in
  quad
    (oneofl [ Bare; Paged ])
    (list_size (int_range 10 50) op_gen)
    events
    (list_size (int_range 0 3) (pair (int_bound 95) (int_bound 0x7FFFFFF)))

(* Compare two tier snapshots field by field; [label] names the pair
   so a failure pins which tier diverged from which. *)
let snapshots_agree ~label (i_a, c_a, pc_a, r_a, k_a, tr_a, p_a)
    (i_b, c_b, pc_b, r_b, k_b, tr_b, p_b) =
  let fail what = QCheck2.Test.fail_reportf "%s diverge on %s" label what in
  let only x y =
    String.concat "; "
      (List.filter_map
         (fun (n, v) ->
           if List.mem (n, v) y then None else Some (Printf.sprintf "%s=%d" n v))
         x)
  in
  if i_a <> i_b then fail (Printf.sprintf "instret (%d vs %d)" i_a i_b)
  else if c_a <> c_b then fail (Printf.sprintf "cycles (%d vs %d)" c_a c_b)
  else if pc_a <> pc_b then fail (Printf.sprintf "pc (0x%Lx vs 0x%Lx)" pc_a pc_b)
  else if r_a <> r_b then fail "register file"
  else if k_a <> k_b then
    fail
      (Printf.sprintf "counters ([%s] vs [%s])" (only k_a k_b) (only k_b k_a))
  else if tr_a <> tr_b then
    fail
      (Printf.sprintf "trap sequence (%d traps vs %d: [%s] vs [%s])"
         (List.length tr_a) (List.length tr_b) (String.concat "; " tr_a)
         (String.concat "; " tr_b))
  else if p_a <> p_b then fail "pending fault count"
  else true

(* The default configuration against the stepped reference pipeline. *)
let compare_pair ~drive (mode, ops, events, raws) =
  let a = run_one ~tier:Super ~drive ~mode ~ops ~events ~raws
  and b = run_one ~tier:Slow ~drive ~mode ~ops ~events ~raws in
  snapshots_agree ~label:"fast/slow" a b

(* Trial counts scale with SANCTORUM_QCHECK_COUNT for the deep sweep
   (the bugfix hunt runs thousands of cases per property); the default
   keeps `dune runtest` quick. *)
let qcount default =
  match Sys.getenv_opt "SANCTORUM_QCHECK_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let prop_differential_entry =
  QCheck2.Test.make
    ~name:
      "differential: block entry at every instruction vs stepped — \
       bit-identical state (run ~fuel:1)"
    ~count:(qcount 60) case_gen
    (compare_pair ~drive:Per_instruction)

(* The superblock differential: the same property driven through
   [Machine.run] (the only entry point where the superblock engine
   engages), with loads, stores, page-crossing accesses, self-modifying
   stores, DMA overwrites, zeroed code words, ECC flips, interrupts and
   armed timers landing at random fuel-chunk boundaries; a timer then
   comes due wherever its deadline falls, mid-block included. Between
   chunks, a compiled page is dropped only by its frame's generation,
   which every one of these writes moves; inside a block, loops that
   rewrite the slot they return to hold the tier to ending a block at a
   store into its own frame. *)
let prop_differential_run =
  QCheck2.Test.make
    ~name:
      "differential: superblock vs stepped tiers — bit-identical state \
       (run-driven)"
    ~count:(qcount 80)
    QCheck2.Gen.(
      pair case_gen (list_size (int_range 1 8) (int_bound 62)))
    (fun (case, chunks) -> compare_pair ~drive:(Chunked chunks) case)

(* ------------------------------------------------------------------ *)
(* Pinned regressions for the ISA/MMU edge cases. *)

(* JALR clears only bit 0 of its target (RISC-V spec), so bit 1
   survives into the PC — the fetch must raise the precise
   instruction-address trap, identically with the fast path on and
   off. Before the fix, both fetch paths rounded the address down and
   silently executed the containing aligned word. *)
let test_fetch_misaligned_jalr () =
  let open Hw.Isa in
  let jump_to fast target =
    let m, last = bare_machine () in
    Hw.Machine.set_fast_path m fast;
    ignore (run_at m 0x1000 (li t0 target @ [ Jalr (zero, t0, 0) ]));
    !last
  in
  List.iter
    (fun fast ->
      (match jump_to fast 0x2002 with
      | Some
          (Hw.Trap.Exception (Hw.Trap.Instruction_address_misaligned 0x2002L))
        -> ()
      | _ ->
          Alcotest.failf "fast=%b: expected instr-misaligned at 0x2002" fast);
      (* an odd target: the hardware clears bit 0, bit 1 survives *)
      match jump_to fast 0x2003 with
      | Some
          (Hw.Trap.Exception (Hw.Trap.Instruction_address_misaligned 0x2002L))
        -> ()
      | _ ->
          Alcotest.failf "fast=%b: odd target must trap at 0x2002" fast)
    [ true; false ]

(* Sv39 fixture for the page-crossing tests: identity-mapped code at
   0x10000, data at 0x20000 -> frame 0x20 and 0x21000 -> frame 0x60
   (deliberately non-adjacent), 0x22000 unmapped. *)
let paged_machine () =
  let m, last = bare_machine () in
  let mem = Hw.Machine.mem m in
  let next = ref 0x40 in
  let alloc () =
    let p = !next in
    incr next;
    p
  in
  let root = alloc () in
  let map vaddr ppn perms =
    Hw.Page_table.map mem ~root_ppn:root ~vaddr ~ppn ~perms ~alloc_table:alloc
  in
  map 0x10000 0x10 { Hw.Page_table.r = true; w = true; x = true; u = true };
  map 0x20000 0x20 { Hw.Page_table.r = true; w = true; x = false; u = true };
  map 0x21000 0x60 { Hw.Page_table.r = true; w = true; x = false; u = true };
  (m, last, root)

let run_paged ?timer m root prog =
  Hw.Phys_mem.write_string (Hw.Machine.mem m) ~pos:0x10000
    (Hw.Isa.encode_program prog);
  let c = Hw.Machine.core m 0 in
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.satp_root <- Some root;
  c.Hw.Machine.pc <- 0x10000L;
  c.Hw.Machine.halted <- false;
  Option.iter
    (fun n -> c.Hw.Machine.timer_cmp <- Some (c.Hw.Machine.cycles + n))
    timer;
  ignore (Hw.Machine.run m ~core:0 ~fuel:1_000);
  c

(* A Ld straddling two pages mapped to non-adjacent frames must
   translate both pages and stitch the bytes — before the fix, the
   second half was read through the first page's translation, i.e.
   from a frame the enclave may not even own. *)
let test_split_load_nonadjacent () =
  List.iter
    (fun fast ->
      let m, last, root = paged_machine () in
      Hw.Machine.set_fast_path m fast;
      let mem = Hw.Machine.mem m in
      Hw.Phys_mem.write_u32 mem 0x20ffc 0x44332211l;
      Hw.Phys_mem.write_u32 mem 0x60000 0x88776655l;
      let open Hw.Isa in
      let c =
        run_paged m root (li t1 0x21000 @ [ Load (Ld, a0, t1, -4); Ecall ])
      in
      check_bool "clean exit" true
        (!last = Some (Hw.Trap.Exception Hw.Trap.Ecall_user));
      check_i64
        (Printf.sprintf "fast=%b: stitched across non-adjacent frames" fast)
        0x8877665544332211L
        (Hw.Machine.read_reg c Hw.Isa.a0))
    [ true; false ]

(* A store straddling into an unmapped page must fault on the second
   page *before any byte is written* — a partial store through the
   first page's translation would be exactly the leak the fix closes. *)
let test_split_store_unmapped () =
  let m, last, root = paged_machine () in
  let mem = Hw.Machine.mem m in
  Hw.Phys_mem.write_u32 mem 0x60ffc 0x5a5a5a5al;
  let open Hw.Isa in
  ignore
    (run_paged m root
       (li t1 0x22000 @ li t2 0x1234 @ [ Store (Sd, t2, t1, -4); Ecall ]));
  (match !last with
  | Some (Hw.Trap.Exception (Hw.Trap.Page_fault (Hw.Trap.Write, 0x22000L))) ->
      ()
  | Some c ->
      Alcotest.failf "unexpected trap: %s"
        (Format.asprintf "%a" Hw.Trap.pp_cause c)
  | None -> Alcotest.fail "expected a write page fault at 0x22000");
  check_bool "no partial store leaked into the mapped page" true
    (Hw.Phys_mem.read_u32 mem 0x60ffc = 0x5a5a5a5al)

(* Each access is bounded by its own width: a byte, halfword or word
   load or store of the last bytes of DRAM and a fetch of its last word
   succeed on both tiers, while an [ld] at size - 4 still faults: it
   splits at the end of the last page, and its upper half, at [size],
   takes the access fault, as a page-crossing access reports the page
   that refused it. Every access used to be bounded as if 8 bytes wide,
   so even an [lbu] of the last byte took an access fault. The stores
   leave an ecall in the last word, and a jalr then fetches it. *)
let test_top_of_dram () =
  let size = 1024 * 1024 in
  let run_with tier prog =
    let m, last = bare_machine () in
    set_tier m tier;
    let metrics = arm_metrics m in
    let c = run_at m 0x1000 prog in
    ( !last,
      c.Hw.Machine.pc,
      Array.to_list c.Hw.Machine.regs,
      c.Hw.Machine.instret,
      c.Hw.Machine.cycles,
      counter_snapshot metrics )
  in
  let both prog =
    let sup = run_with Super prog and slow = run_with Slow prog in
    check_bool "tiers agree" true (sup = slow);
    sup
  in
  let open Hw.Isa in
  let ecall = Int32.to_int (encode Ecall) in
  let last, pc, regs, _, _, _ =
    both
      (li t0 size @ li t1 0xab
      @ [ Store (Sb, t1, t0, -1); Load (Lbu, a0, t0, -1) ]
      @ li t1 0x1234
      @ [ Store (Sh, t1, t0, -2); Load (Lhu, a1, t0, -2) ]
      @ li t1 ecall
      @ [ Store (Sw, t1, t0, -4); Load (Lwu, a2, t0, -4); Jalr (zero, t0, -4) ]
      )
  in
  check_bool "the last word fetched and run" true
    (last = Some (Hw.Trap.Exception Hw.Trap.Ecall_user));
  check_i64 "trapped at the last word" (Int64.of_int (size - 4)) pc;
  check_i64 "lbu of the last byte" 0xabL (List.nth regs a0);
  check_i64 "lhu of the last halfword" 0x1234L (List.nth regs a1);
  check_i64 "lwu of the last word" (Int64.of_int ecall) (List.nth regs a2);
  let last, _, _, _, _, _ = both (li t0 size @ [ Load (Ld, a0, t0, -4); Ecall ]) in
  check_bool "ld at size - 4 faults" true
    (last
    = Some
        (Hw.Trap.Exception
           (Hw.Trap.Access_fault (Hw.Trap.Read, Int64.of_int size))))

(* Same property through the whole stack: boot, install an enclave,
   run the fig2-style compute loop under the monitor — fast path on
   and off must agree on every cycle and on every counter of a metrics
   sink attached at boot. Run to completion,
   and with the OS preemption timer armed so the quantum expires
   mid-loop: then the AEX the monitor takes, and the register dump it
   saves, must be identical too. On both backends. *)
let test_differential_full_stack () =
  let open Hw.Isa in
  let program =
    li t0 330
    @ [
        Op_imm (Add, t1, zero, 0);
        Op_imm (Add, t1, t1, 1);
        Branch (Bne, t1, t0, -4);
        Op_imm (Add, a7, zero, 1);
        Ecall;
      ]
  in
  let run ~backend ?quantum fast =
    let metrics = Tel.Metrics.create () in
    let tb =
      Testbed.create ~backend ~seed:"fastpath-differential"
        ~sink:(Tel.Sink.create ~metrics ())
        ()
    in
    Hw.Machine.set_fast_path tb.Testbed.machine fast;
    let image = Img.of_program ~evbase:0x10000 program in
    let inst = Result.get_ok (Os.install_enclave tb.Testbed.os image) in
    let eid = inst.Os.eid and tid = List.hd inst.Os.tids in
    let outcome =
      Os.run_enclave tb.Testbed.os ~eid ~tid ~core:0 ~fuel:10_000 ?quantum ()
    in
    let aex =
      Sanctorum.Sm.read_aex_state tb.Testbed.sm
        ~caller:(Sanctorum.Sm.Enclave_caller eid) ~tid
    in
    let c = Hw.Machine.core tb.Testbed.machine 0 in
    ( (match outcome with Ok o -> Some o | Error _ -> None),
      Result.to_option aex,
      c.Hw.Machine.instret,
      c.Hw.Machine.cycles,
      counter_snapshot metrics )
  in
  List.iter
    (fun (backend, quantum) ->
      let label what =
        Printf.sprintf "%s, %s: %s"
          (Testbed.backend_name backend)
          (match quantum with
          | None -> "no timer"
          | Some q -> Printf.sprintf "quantum %d" q)
          what
      in
      let o_a, d_a, i_a, c_a, k_a = run ~backend ?quantum true
      and o_b, d_b, i_b, c_b, k_b = run ~backend ?quantum false in
      check_bool (label "outcome agrees") true (o_a = o_b);
      (match quantum with
      | None ->
          check_bool (label "clean exit") true (o_a = Some Os.Exited);
          check_bool (label "no AEX dump") true (d_a = None)
      | Some _ ->
          check_bool (label "preempted") true (o_a = Some Os.Preempted);
          check_bool (label "AEX dump saved") true (d_a <> None));
      check_bool (label "AEX dump agrees") true (d_a = d_b);
      check_int (label "instret agrees") i_b i_a;
      check_int (label "cycles agree") c_b c_a;
      check_bool (label "counters agree") true (k_a = k_b))
    [
      (Testbed.Sanctum_backend, None);
      (Testbed.Sanctum_backend, Some 600);
      (Testbed.Keystone_backend, None);
      (Testbed.Keystone_backend, Some 600);
    ]

(* ------------------------------------------------------------------ *)
(* Superblock-tier pinned regressions. *)

(* With [Cache] and [Tlb] keeping no counts, the hw.* counters are the
   only record of the tier's TLB and cache accounting; these two tests
   and the two differential properties hold it to [step]'s. Run one
   memory-heavy paged loop under both tiers with a live metrics
   registry and demand the whole counter table — and the
   cycles/instret state and the final trap — agree bit-for-bit. With
   [~timer], a timer armed that many cycles ahead preempts the loop
   (the handler halts the core). Returns the superblock tier's
   hw.sb.instret, so callers can demand that it engaged. *)
let tier_metrics_exact ?timer () =
  let run_with tier =
    let m, last, root = paged_machine () in
    let metrics = arm_metrics m in
    set_tier m tier;
    let open Hw.Isa in
    let prog =
      li t0 40 @ li t1 0x20000
      @ [
          Op_imm (Add, t2, zero, 0);
          Store (Sd, t2, t1, 8);
          Load (Ld, a0, t1, 8);
          Load (Lw, a1, t1, 0x7f8);
          Op_imm (Add, t2, t2, 1);
          Branch (Bne, t2, t0, -16);
          Ecall;
        ]
    in
    let c = run_paged ?timer m root prog in
    ( counter_snapshot metrics,
      sb_instret_of metrics,
      c.Hw.Machine.instret,
      c.Hw.Machine.cycles,
      c.Hw.Machine.pc,
      !last )
  in
  let m_s, sb_s, i_s, c_s, pc_s, trap_s = run_with Super in
  let m_l, sb_l, i_l, c_l, pc_l, trap_l = run_with Slow in
  let what s =
    match timer with
    | None -> s
    | Some n -> Printf.sprintf "%s (timer +%d)" s n
  in
  check_int (what "slow tier ran no superblocks") 0 sb_l;
  check_bool (what "metrics table agrees") true (m_s = m_l);
  check_int (what "instret agrees") i_l i_s;
  check_int (what "cycles agree") c_l c_s;
  check_i64 (what "pc agrees") pc_l pc_s;
  check_bool (what "final trap agrees") true (trap_s = trap_l);
  let want =
    match timer with
    | None -> Hw.Trap.Exception Hw.Trap.Ecall_user
    | Some _ -> Hw.Trap.Interrupt Hw.Trap.Timer
  in
  check_bool (what "run ended on the expected trap") true (trap_s = Some want);
  sb_s

let test_tier_metrics_exact () =
  check_bool "superblock tier engaged" true (tier_metrics_exact () > 0)

(* 25 deadlines, 29 cycles apart: from before the first block can run
   to deep inside the loop, so the timer comes due at many different
   in-block boundaries. *)
let test_tier_metrics_timer () =
  let engaged =
    List.filter
      (fun i -> tier_metrics_exact ~timer:(1 + (29 * i)) () > 0)
      (List.init 25 Fun.id)
  in
  check_bool "superblock tier engaged under most deadlines" true
    (List.length engaged >= 20)

(* A store that straddles a page boundary mid-superblock must
   side-exit *before any byte moves*. Two cases in one program: a
   straddle across two mapped, non-adjacent frames (the stepped path
   stitches it) and a straddle whose second page is unmapped (faults
   whole). Every tier must leave both frames, the registers and the
   trap bit-identical. *)
let test_superblock_split_store () =
  let run_with tier =
    let m, last, root = paged_machine () in
    set_tier m tier;
    let mem = Hw.Machine.mem m in
    Hw.Phys_mem.write_u32 mem 0x20ff8 0xaaaa5555l;
    Hw.Phys_mem.write_u32 mem 0x60000 0x77777777l;
    Hw.Phys_mem.write_u32 mem 0x60ff8 0x5a5a5a5al;
    Hw.Phys_mem.write_u32 mem 0x60ffc 0xa5a5a5a5l;
    let open Hw.Isa in
    let prog =
      li t1 0x21000 @ li s0 0x22000 @ li t2 0x11223344
      @ [
          Op_imm (Add, a0, zero, 7);
          Op_imm (Add, a0, a0, 8);
          Store (Sd, t2, t1, -4) (* 0x20ffc: frames 0x20 / 0x60 *);
          Op_imm (Add, a0, a0, 16);
          Store (Sd, t2, s0, -4) (* 0x21ffc: second half unmapped *);
          Ecall;
        ]
    in
    let c = run_paged m root prog in
    ( Hw.Machine.read_reg c Hw.Isa.a0,
      Hw.Phys_mem.read_u32 mem 0x20ff8,
      Hw.Phys_mem.read_u32 mem 0x20ffc,
      Hw.Phys_mem.read_u32 mem 0x60000,
      Hw.Phys_mem.read_u32 mem 0x60ff8,
      Hw.Phys_mem.read_u32 mem 0x60ffc,
      !last )
  in
  let sup = run_with Super and slow = run_with Slow in
  check_bool "tiers agree" true (sup = slow);
  let a0, before, lo, hi, keep, partial, trap = sup in
  check_i64 "ALU state at the fault" 31L a0;
  check_bool "mapped straddle stitched across frames" true
    (lo = 0x11223344l && hi = 0l);
  check_bool "neighbour words untouched" true
    (before = 0xaaaa5555l && keep = 0x5a5a5a5al);
  check_bool "no partial byte written by the faulting straddle" true
    (partial = 0xa5a5a5a5l);
  match trap with
  | Some (Hw.Trap.Exception (Hw.Trap.Page_fault (Hw.Trap.Write, 0x22000L))) ->
      ()
  | Some c ->
      Alcotest.failf "unexpected trap: %s"
        (Format.asprintf "%a" Hw.Trap.pp_cause c)
  | None -> Alcotest.fail "expected a write page fault at 0x22000"

(* A block's entry translates its own PC from the TLB, so the entry's
   execute-permission check is all that keeps the tier out of a
   TLB-resident page the fetch may not execute. A load leaves the
   target page's translation in the TLB (a faulting load inserts it
   too), the page holds valid words, and a jalr lands on it: both tiers
   must raise the same execute page fault at the same pc, instret and
   cycles, with no word of the page retired. Two denials: a user page
   mapped rw- and an rwx page with u = false, whose load faults. *)
let test_entry_execute_permission () =
  let target = 0x30000 in
  let run_with tier perms =
    let m, _, root = paged_machine () in
    set_tier m tier;
    let metrics = arm_metrics m in
    let mem = Hw.Machine.mem m in
    Hw.Page_table.map mem ~root_ppn:root ~vaddr:target ~ppn:(target lsr 12)
      ~perms ~alloc_table:(fun () -> Alcotest.fail "no new table expected");
    let open Hw.Isa in
    Hw.Phys_mem.write_string mem ~pos:target
      (encode_program [ Op_imm (Add, a0, zero, 42); Ecall ]);
    let traps = ref [] in
    Hw.Machine.set_trap_handler m (fun _ c cause ->
        traps :=
          (cause, c.Hw.Machine.pc, c.Hw.Machine.instret, c.Hw.Machine.cycles)
          :: !traps;
        match cause with
        | Hw.Trap.Exception (Hw.Trap.Page_fault (Hw.Trap.Read, _)) ->
            (* skip the denied load; its translation stays in the TLB *)
            c.Hw.Machine.pc <- Int64.add c.Hw.Machine.pc 4L
        | _ -> c.Hw.Machine.halted <- true);
    let c =
      run_paged m root
        (li t1 target @ [ Load (Lw, t2, t1, 0); Jalr (zero, t1, 0); Ecall ])
    in
    (List.rev !traps, Hw.Machine.read_reg c Hw.Isa.a0, counter_snapshot metrics)
  in
  List.iter
    (fun (what, perms) ->
      let sup = run_with Super perms and slow = run_with Slow perms in
      check_bool (what ^ ": tiers agree") true (sup = slow);
      let traps, a0, _ = sup in
      check_i64 (what ^ ": no word of the page retired") 0L a0;
      match List.rev traps with
      | (Hw.Trap.Exception (Hw.Trap.Page_fault (Hw.Trap.Execute, va)), pc, _, _)
        :: _
        when va = Int64.of_int target && pc = va ->
          ()
      | _ -> Alcotest.failf "%s: expected an execute fault at 0x30000" what)
    [
      ( "rw- user page",
        { Hw.Page_table.r = true; w = true; x = false; u = true } );
      ( "rwx page, u = false",
        { Hw.Page_table.r = true; w = true; x = true; u = false } );
    ]

(* Full-stack SMC: an enclave whose store dirties its *own* code page
   while a superblock on that page is running. The patched instruction
   (a jal) is the only exit from the loop, so a clean [Exited] outcome
   proves the fresh bytes ran — a stale compiled closure would spin
   until the fuel budget dies. On both platform backends, both tiers
   bit-identical. *)
let smc_own_page_image () =
  let open Hw.Isa in
  let evbase = 0x10000 in
  let page = Hw.Phys_mem.page_size in
  let enc_jal = Int32.to_int (encode (Jal (zero, 12))) in
  let prefix = li t1 enc_jal @ li t0 evbase in
  let p = List.length prefix in
  let program =
    prefix
    @ [
        Op_imm (Add, a0, a0, 1) (* slot p: patched to jal +12 below *);
        Store (Sw, t1, t0, 4 * p) (* dirty own page, mid-superblock *);
        Jal (zero, -8) (* back to the (now patched) slot *);
        Op_imm (Add, a7, zero, 1);
        Ecall;
      ]
  in
  Img.make ~evbase ~evsize:(2 * page)
    ~threads:
      [ (Int64.of_int evbase, Int64.of_int (evbase + (2 * page) - 16)) ]
    [
      {
        Img.vaddr = evbase;
        r = true;
        w = true;
        x = true;
        contents = encode_program program;
      };
      { Img.vaddr = evbase + page; r = true; w = true; x = false; contents = "" };
    ]

let test_superblock_smc_own_page backend () =
  let run_with tier =
    let metrics = Tel.Metrics.create () in
    let tb =
      Testbed.create ~backend ~seed:"sb-smc" ~sink:(Tel.Sink.create ~metrics ())
        ()
    in
    set_tier tb.Testbed.machine tier;
    let inst =
      Result.get_ok (Os.install_enclave tb.Testbed.os (smc_own_page_image ()))
    in
    let outcome =
      Os.run_enclave tb.Testbed.os ~eid:inst.Os.eid
        ~tid:(List.hd inst.Os.tids) ~core:0 ~fuel:10_000 ()
    in
    let c = Hw.Machine.core tb.Testbed.machine 0 in
    ( (match outcome with Ok o -> Some o | Error _ -> None),
      c.Hw.Machine.instret,
      c.Hw.Machine.cycles,
      counter_snapshot metrics )
  in
  let sup = run_with Super and slow = run_with Slow in
  let o, _, _, _ = sup in
  check_bool "patched instruction executed (clean exit)" true
    (o = Some Os.Exited);
  check_bool "tiers agree" true (sup = slow)

(* The DMA variant: a device overwrites an instruction of a code page
   whose superblock is already compiled (a previous run executed it).
   The next run must execute the new bytes under both tiers. Runs bare
   in the untrusted domain on both backends, so the write crosses the
   backend's dma_check and the invalidation hook. *)
let test_superblock_dma_overwrite backend () =
  let code_paddr = 0x300000 in
  let run_with tier =
    let tb = Testbed.create ~backend ~seed:"sb-dma" () in
    let m = tb.Testbed.machine in
    set_tier m tier;
    let c = Hw.Machine.core m 0 in
    (* Program PMP / flush for bare untrusted execution (Keystone cores
       boot with no background allow entry). *)
    tb.Testbed.platform.Pf.Platform.enter_domain ~core:c
      Hw.Trap.domain_untrusted;
    let open Hw.Isa in
    let write_prog v =
      match
        Hw.Machine.dma_write m ~paddr:code_paddr
          (encode_program [ Op_imm (Add, a0, zero, v); Jal (zero, 0) ])
      with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "dma_write into untrusted memory refused"
    in
    let spin () =
      c.Hw.Machine.pc <- Int64.of_int code_paddr;
      Hw.Machine.write_reg c Hw.Isa.a0 0L;
      ignore (Hw.Machine.run m ~core:0 ~fuel:50);
      Hw.Machine.read_reg c Hw.Isa.a0
    in
    write_prog 5;
    let first = spin () in
    (* overwrite the already-compiled instruction behind the core's back *)
    write_prog 55;
    let second = spin () in
    (first, second, c.Hw.Machine.instret, c.Hw.Machine.cycles)
  in
  let sup = run_with Super and slow = run_with Slow in
  let first, second, _, _ = sup in
  check_i64 "original bytes executed" 5L first;
  check_i64 "DMA-overwritten bytes executed (no stale closure)" 55L second;
  check_bool "tiers agree" true (sup = slow)

(* A block on core 1 rewrites core 0's compiled code page between core
   0's blocks. Nothing tells core 0: its next block entry finds the
   frame's generation moved and compiles the page afresh, so core 0
   runs the new bytes. Core 0 counts round a two-instruction loop;
   core 1 first patches the increment, then turns the loop's jump into
   an ecall. A stale page would count by one and never stop. *)
let test_cross_core_store () =
  let run_with tier =
    let m =
      Hw.Machine.create
        { Hw.Machine.default_config with cores = 2; mem_bytes = 1024 * 1024 }
    in
    set_tier m tier;
    let metrics = arm_metrics m in
    Hw.Machine.set_trap_handler m (fun _ c _ -> c.Hw.Machine.halted <- true);
    let mem = Hw.Machine.mem m in
    let open Hw.Isa in
    Hw.Phys_mem.write_string mem ~pos:0x1000
      (encode_program [ Op_imm (Add, a0, a0, 1); Jal (zero, -4) ]);
    (* core 1 stores the word in a2 into core 0's code at offset a1 *)
    Hw.Phys_mem.write_string mem ~pos:0x2000
      (encode_program
         (li t0 0x1000 @ [ Op (Add, t0, t0, a1); Store (Sw, a2, t0, 0); Ecall ]));
    let c0 = Hw.Machine.core m 0 and c1 = Hw.Machine.core m 1 in
    c0.Hw.Machine.pc <- 0x1000L;
    let patch slot instr =
      c1.Hw.Machine.pc <- 0x2000L;
      c1.Hw.Machine.halted <- false;
      Hw.Machine.write_reg c1 a1 (Int64.of_int (4 * slot));
      Hw.Machine.write_reg c1 a2 (Int64.of_int32 (encode instr));
      ignore (Hw.Machine.run m ~core:1 ~fuel:100)
    in
    ignore (Hw.Machine.run m ~core:0 ~fuel:20);
    patch 0 (Op_imm (Add, a0, a0, 100));
    ignore (Hw.Machine.run m ~core:0 ~fuel:20);
    patch 1 Ecall;
    ignore (Hw.Machine.run m ~core:0 ~fuel:20);
    ( ( Array.to_list c0.Hw.Machine.regs,
        c0.Hw.Machine.pc,
        c0.Hw.Machine.cycles,
        c0.Hw.Machine.instret,
        c0.Hw.Machine.halted ),
      (c1.Hw.Machine.cycles, c1.Hw.Machine.instret),
      counter_snapshot metrics,
      sb_instret_of metrics )
  in
  let ((regs, _, _, _, halted) as c0), c1, k, sb = run_with Super in
  let c0', c1', k', _ = run_with Slow in
  check_bool "superblock tier engaged" true (sb > 0);
  check_i64 "core 0 ran both patches" 1110L (List.nth regs Hw.Isa.a0);
  check_bool "core 0 stopped at the patched ecall" true halted;
  check_bool "core 0 agrees across tiers" true (c0 = c0');
  check_bool "core 1 agrees across tiers" true (c1 = c1');
  check_bool "counters agree across tiers" true (k = k')

let suite =
  ( "fastpath",
    [
      Alcotest.test_case "smc: store patches next instruction" `Quick
        test_smc_inline_store;
      Alcotest.test_case "smc: store drops cached decode" `Quick
        test_smc_store_after_decode;
      Alcotest.test_case "smc: DMA write drops cached decode" `Quick
        test_smc_dma;
      Alcotest.test_case "smc: bit flip drops cached decode, ECC corrects"
        `Quick test_flip_invalidates_decode;
      Alcotest.test_case "interrupts: FIFO delivery order" `Quick
        test_interrupt_fifo_order;
      Alcotest.test_case "tlb: find exact under early exit and MRU" `Quick
        test_tlb_find_exact;
      Alcotest.test_case "cache: access_hit MRU and LRU exact" `Quick
        test_cache_access_hit_lru;
      Alcotest.test_case "ecc: corrected counter adds by n" `Quick
        test_ecc_corrected_batch;
      Alcotest.test_case "fetch: misaligned JALR target traps precisely"
        `Quick test_fetch_misaligned_jalr;
      Alcotest.test_case "mmu: page-crossing load splits the translation"
        `Quick test_split_load_nonadjacent;
      Alcotest.test_case "mmu: page-crossing store into unmapped faults whole"
        `Quick test_split_store_unmapped;
      Alcotest.test_case "mmu: accesses at the top of DRAM bounded by width"
        `Quick test_top_of_dram;
      Alcotest.test_case "differential: full stack enclave run" `Quick
        test_differential_full_stack;
      Alcotest.test_case "superblock: counters exact across tiers (armed sink)"
        `Quick test_tier_metrics_exact;
      Alcotest.test_case
        "superblock: counters exact across tiers (timer preempts the loop)"
        `Quick test_tier_metrics_timer;
      Alcotest.test_case "superblock: page-crossing store side-exits whole"
        `Quick test_superblock_split_store;
      Alcotest.test_case "superblock: block entry honours execute permission"
        `Quick test_entry_execute_permission;
      Alcotest.test_case "superblock: smc store dirties own page (sanctum)"
        `Quick
        (test_superblock_smc_own_page Testbed.Sanctum_backend);
      Alcotest.test_case "superblock: smc store dirties own page (keystone)"
        `Quick
        (test_superblock_smc_own_page Testbed.Keystone_backend);
      Alcotest.test_case "superblock: DMA overwrite drops compiled page \
                          (sanctum)" `Quick
        (test_superblock_dma_overwrite Testbed.Sanctum_backend);
      Alcotest.test_case "superblock: DMA overwrite drops compiled page \
                          (keystone)" `Quick
        (test_superblock_dma_overwrite Testbed.Keystone_backend);
      Alcotest.test_case "superblock: another core's store recompiles the page"
        `Quick test_cross_core_store;
      QCheck_alcotest.to_alcotest prop_differential_entry;
      QCheck_alcotest.to_alcotest prop_differential_run;
    ] )
