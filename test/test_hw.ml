module Hw = Sanctorum_hw

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_i64 = Alcotest.(check int64)

(* ------------------------------------------------------------------ *)
(* Physical memory *)

let test_phys_mem () =
  let m = Hw.Phys_mem.create ~size:(64 * 1024) in
  check_int "size" (64 * 1024) (Hw.Phys_mem.size m);
  Hw.Phys_mem.write_u64 m 0x100 0x1122334455667788L;
  check_i64 "u64" 0x1122334455667788L (Hw.Phys_mem.read_u64 m 0x100);
  check_int "u8 LE" 0x88 (Hw.Phys_mem.read_u8 m 0x100);
  check_int "u16 LE" 0x7788 (Hw.Phys_mem.read_u16 m 0x100);
  Hw.Phys_mem.write_string m ~pos:0x200 "hello";
  Alcotest.(check string)
    "string" "hello"
    (Hw.Phys_mem.read_string m ~pos:0x200 ~len:5);
  Hw.Phys_mem.zero_range m ~pos:0x200 ~len:5;
  Alcotest.(check string)
    "zeroed" "\000\000\000\000\000"
    (Hw.Phys_mem.read_string m ~pos:0x200 ~len:5);
  check_int "page_of" 16 (Hw.Phys_mem.page_of (16 * 4096));
  (match Hw.Phys_mem.read_u64 m (64 * 1024) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range read succeeded");
  match Hw.Phys_mem.create ~size:100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unaligned size accepted"

(* [iter_nonzero_words] against the loop it replaces in the invariant
   checker: [read_u64] over every word of a frame, keeping the
   non-zero ones. Writes (zeros included) are biased to each frame's
   first and last word and to the last frame of memory, and every frame
   is scanned, so a scan that strays past its range or skips an edge
   word shows up. *)
let qcheck_nonzero_words =
  let pages = 8 in
  let words_per_page = Hw.Phys_mem.page_size / 8 in
  let words = pages * words_per_page in
  let frame = QCheck2.Gen.int_range 0 (pages - 1) in
  let word =
    QCheck2.Gen.(
      oneof
        [
          int_range 0 (words - 1);
          map (fun f -> f * words_per_page) frame;
          map (fun f -> ((f + 1) * words_per_page) - 1) frame;
          int_range (words - words_per_page) (words - 1);
        ])
  in
  let value = QCheck2.Gen.(oneof [ return 0L; return 1L; int64 ]) in
  QCheck2.Test.make ~name:"phys_mem: nonzero-word scan = read_u64 loop"
    ~count:300
    QCheck2.Gen.(list_size (int_range 0 32) (pair word value))
    (fun writes ->
      let m = Hw.Phys_mem.create ~size:(pages * Hw.Phys_mem.page_size) in
      List.iter (fun (w, v) -> Hw.Phys_mem.write_u64 m (w * 8) v) writes;
      List.for_all
        (fun f ->
          let base = Hw.Phys_mem.page_base f in
          let naive =
            List.filter_map
              (fun i ->
                let v = Hw.Phys_mem.read_u64 m (base + (i * 8)) in
                if v <> 0L then Some (base + (i * 8), v) else None)
              (List.init words_per_page Fun.id)
          in
          let scanned = ref [] in
          Hw.Phys_mem.iter_nonzero_words m ~pos:base
            ~len:Hw.Phys_mem.page_size (fun p v ->
              scanned := (p, v) :: !scanned);
          List.rev !scanned = naive)
        (List.init pages Fun.id))

let test_nonzero_words_bounds () =
  let m = Hw.Phys_mem.create ~size:(2 * Hw.Phys_mem.page_size) in
  let rejects label ~pos ~len =
    match Hw.Phys_mem.iter_nonzero_words m ~pos ~len (fun _ _ -> ()) with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" label
  in
  rejects "range past the end" ~pos:Hw.Phys_mem.page_size
    ~len:(Hw.Phys_mem.page_size + 8);
  rejects "negative start" ~pos:(-8) ~len:8;
  rejects "unaligned start" ~pos:4 ~len:8;
  rejects "unaligned length" ~pos:0 ~len:12

(* ------------------------------------------------------------------ *)
(* Cache model *)

let test_cache_basic () =
  let c = Hw.Cache.create Hw.Cache.default_l1 in
  let miss1, cy1 = Hw.Cache.access c ~paddr:0x1000 in
  check_bool "first is miss" false miss1;
  check_int "miss cycles" Hw.Cache.default_l1.Hw.Cache.miss_cycles cy1;
  let hit, cy2 = Hw.Cache.access c ~paddr:0x1000 in
  check_bool "second is hit" true hit;
  check_int "hit cycles" Hw.Cache.default_l1.Hw.Cache.hit_cycles cy2;
  let hit_same_line, _ = Hw.Cache.access c ~paddr:0x103f in
  check_bool "same line hits" true hit_same_line;
  let hit_next_line, _ = Hw.Cache.access c ~paddr:0x1040 in
  check_bool "next line misses" false hit_next_line;
  Hw.Cache.flush_all c;
  check_bool "flushed" false (Hw.Cache.probe c ~paddr:0x1000)

let test_cache_eviction () =
  (* 2-way cache: third distinct tag in one set evicts the LRU way. *)
  let cfg = { Hw.Cache.default_l1 with Hw.Cache.sets = 4; ways = 2 } in
  let c = Hw.Cache.create cfg in
  let addr tag = tag * 4 * 64 in
  ignore (Hw.Cache.access c ~paddr:(addr 1));
  ignore (Hw.Cache.access c ~paddr:(addr 2));
  check_bool "both resident" true
    (Hw.Cache.probe c ~paddr:(addr 1) && Hw.Cache.probe c ~paddr:(addr 2));
  ignore (Hw.Cache.access c ~paddr:(addr 1));
  (* tag 2 is now LRU *)
  ignore (Hw.Cache.access c ~paddr:(addr 3));
  check_bool "LRU evicted" false (Hw.Cache.probe c ~paddr:(addr 2));
  check_bool "MRU kept" true (Hw.Cache.probe c ~paddr:(addr 1));
  let hits, misses = Hw.Cache.stats c in
  check_int "hits" 1 hits;
  check_int "misses" 3 misses

let test_cache_partition_fn () =
  let c = Hw.Cache.create Hw.Cache.default_l2 in
  Hw.Cache.set_index_fn c (fun paddr -> if paddr < 0x1000 then 0 else 1);
  ignore (Hw.Cache.access c ~paddr:0x0);
  check_int "custom index low" 0 (Hw.Cache.set_of_paddr c 0x10);
  check_int "custom index high" 1 (Hw.Cache.set_of_paddr c 0x2000);
  Hw.Cache.flush_set c 0;
  check_bool "set flush" false (Hw.Cache.probe c ~paddr:0x0)

(* ------------------------------------------------------------------ *)
(* TLB *)

let test_tlb () =
  let t = Hw.Tlb.create ~entries:4 in
  let perms = { Hw.Tlb.r = true; w = false; x = false; u = true } in
  check_bool "empty" true (Hw.Tlb.lookup t ~vpn:5 = None);
  Hw.Tlb.insert t ~vpn:5 ~ppn:42 ~perms;
  (match Hw.Tlb.lookup t ~vpn:5 with
  | Some (42, p) -> check_bool "perms kept" true (p = perms)
  | Some _ | None -> Alcotest.fail "lookup after insert");
  (* update in place *)
  Hw.Tlb.insert t ~vpn:5 ~ppn:43 ~perms;
  check_int "one entry" 1 (Hw.Tlb.entry_count t);
  (* capacity: round robin replacement keeps the size bounded *)
  for vpn = 10 to 20 do
    Hw.Tlb.insert t ~vpn ~ppn:vpn ~perms
  done;
  check_int "bounded" 4 (Hw.Tlb.entry_count t);
  Hw.Tlb.flush t;
  check_int "flush" 0 (Hw.Tlb.entry_count t)

(* ------------------------------------------------------------------ *)
(* PMP *)

let test_pmp () =
  let p = Hw.Pmp.create () in
  (* No entries: M allowed, U denied. *)
  check_bool "bare M" true
    (Hw.Pmp.check p ~privilege:Hw.Pmp.M ~access:Hw.Trap.Read ~paddr:0x1000);
  check_bool "bare U" false
    (Hw.Pmp.check p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~paddr:0x1000);
  Hw.Pmp.set_entry p ~index:1 ~lo:0x1000 ~hi:0x2000 ~r:true ~w:false ~x:false
    ~locked:false;
  check_bool "U read in range" true
    (Hw.Pmp.check p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~paddr:0x1800);
  check_bool "U write in range" false
    (Hw.Pmp.check p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Write ~paddr:0x1800);
  check_bool "U read out of range" false
    (Hw.Pmp.check p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~paddr:0x2000);
  (* Priority: lower index wins. *)
  Hw.Pmp.set_entry p ~index:0 ~lo:0x1800 ~hi:0x1900 ~r:false ~w:false ~x:false
    ~locked:false;
  check_bool "priority deny" false
    (Hw.Pmp.check p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~paddr:0x1880);
  check_bool "outside priority still ok" true
    (Hw.Pmp.check p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~paddr:0x1700);
  (* Locked entries bind M-mode and reject reprogramming. *)
  Hw.Pmp.set_entry p ~index:2 ~lo:0x0 ~hi:0x1000 ~r:false ~w:false ~x:false
    ~locked:true;
  check_bool "locked binds M" false
    (Hw.Pmp.check p ~privilege:Hw.Pmp.M ~access:Hw.Trap.Read ~paddr:0x500);
  (match
     Hw.Pmp.set_entry p ~index:2 ~lo:0 ~hi:10 ~r:true ~w:true ~x:true
       ~locked:false
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "locked entry reprogrammed");
  (* Unlocked match lets M through regardless of perms. *)
  check_bool "M through unlocked deny" true
    (Hw.Pmp.check p ~privilege:Hw.Pmp.M ~access:Hw.Trap.Read ~paddr:0x1880);
  (* range check *)
  check_bool "range ok" true
    (Hw.Pmp.check_range p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~lo:0x1000
       ~hi:0x1800);
  check_bool "range crossing deny" false
    (Hw.Pmp.check_range p ~privilege:Hw.Pmp.U ~access:Hw.Trap.Read ~lo:0x1000
       ~hi:0x2000)

(* ------------------------------------------------------------------ *)
(* Page tables *)

let test_page_table () =
  let mem = Hw.Phys_mem.create ~size:(1024 * 1024) in
  let next = ref 1 in
  let alloc_table () =
    let p = !next in
    incr next;
    p
  in
  let root = alloc_table () in
  let perms = { Hw.Page_table.r = true; w = true; x = false; u = true } in
  Hw.Page_table.map mem ~root_ppn:root ~vaddr:0x40000000 ~ppn:100 ~perms
    ~alloc_table;
  (match
     Hw.Page_table.walk mem ~root_ppn:root ~vaddr:0x40000123
       ~pte_fetch_ok:(fun _ -> true)
   with
  | Ok (100, p) -> check_bool "perms" true (p = perms)
  | Ok _ -> Alcotest.fail "wrong ppn"
  | Error _ -> Alcotest.fail "walk failed");
  (* unmapped sibling *)
  (match
     Hw.Page_table.walk mem ~root_ppn:root ~vaddr:0x40001000
       ~pte_fetch_ok:(fun _ -> true)
   with
  | Error Hw.Page_table.Invalid_mapping -> ()
  | Ok _ | Error _ -> Alcotest.fail "unmapped vaddr translated");
  (* remap rejection *)
  (match
     Hw.Page_table.map mem ~root_ppn:root ~vaddr:0x40000000 ~ppn:101 ~perms
       ~alloc_table
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double map accepted");
  (* pte fetch veto: the Sanctum page-walk invariant *)
  (match
     Hw.Page_table.walk mem ~root_ppn:root ~vaddr:0x40000123
       ~pte_fetch_ok:(fun paddr -> paddr >= 0x10000)
   with
  | Error (Hw.Page_table.Walk_access_denied _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "vetoed walk succeeded");
  (* walk cost: 3 levels *)
  check_int "walk steps" 3
    (Hw.Page_table.walk_cost_levels mem ~root_ppn:root ~vaddr:0x40000123
       ~pte_fetch_ok:(fun _ -> true));
  (* unmap *)
  check_bool "unmap" true (Hw.Page_table.unmap mem ~root_ppn:root ~vaddr:0x40000000);
  check_bool "unmap again" false
    (Hw.Page_table.unmap mem ~root_ppn:root ~vaddr:0x40000000)

let test_superpage () =
  let mem = Hw.Phys_mem.create ~size:(1024 * 1024) in
  (* Hand-construct a level-1 superpage leaf (2 MiB). *)
  let root = 1 in
  let l1 = 2 in
  let vaddr = 0x40000000 in
  let perms = { Hw.Page_table.r = true; w = false; x = false; u = true } in
  let idx2 = (vaddr lsr 30) land 511 in
  Hw.Phys_mem.write_u64 mem
    ((root * 4096) + (8 * idx2))
    (Hw.Page_table.encode_pte ~ppn:l1
       ~perms:{ Hw.Page_table.r = false; w = false; x = false; u = false }
       ~valid:true);
  let idx1 = (vaddr lsr 21) land 511 in
  Hw.Phys_mem.write_u64 mem
    ((l1 * 4096) + (8 * idx1))
    (Hw.Page_table.encode_pte ~ppn:512 ~perms ~valid:true);
  (* offset 5 pages into the superpage resolves to frame 512+5 *)
  match
    Hw.Page_table.walk mem ~root_ppn:root ~vaddr:(vaddr + (5 * 4096) + 7)
      ~pte_fetch_ok:(fun _ -> true)
  with
  | Ok (ppn, _) -> check_int "superpage frame" 517 ppn
  | Error _ -> Alcotest.fail "superpage walk failed"

let test_pte_encoding () =
  let perms = { Hw.Page_table.r = true; w = false; x = true; u = true } in
  let pte = Hw.Page_table.encode_pte ~ppn:0x12345 ~perms ~valid:true in
  (match Hw.Page_table.decode_pte pte with
  | Ok (ppn, p, leaf) ->
      check_int "ppn" 0x12345 ppn;
      check_bool "leaf" true leaf;
      check_bool "perms" true (p = perms)
  | Error () -> Alcotest.fail "valid pte decoded as invalid");
  match Hw.Page_table.decode_pte 0L with
  | Error () -> ()
  | Ok _ -> Alcotest.fail "invalid pte decoded"

(* ------------------------------------------------------------------ *)
(* ISA encode/decode *)

let instr_gen =
  let open QCheck2.Gen in
  let reg = int_range 0 31 in
  let imm12 = int_range (-2048) 2047 in
  let shamt = int_range 0 63 in
  let alu =
    oneofl
      [ Hw.Isa.Add; Hw.Isa.Slt; Hw.Isa.Sltu; Hw.Isa.Xor; Hw.Isa.Or; Hw.Isa.And ]
  in
  let alu_r =
    oneofl
      [ Hw.Isa.Add; Hw.Isa.Sub; Hw.Isa.Sll; Hw.Isa.Slt; Hw.Isa.Sltu;
        Hw.Isa.Xor; Hw.Isa.Srl; Hw.Isa.Sra; Hw.Isa.Or; Hw.Isa.And ]
  in
  oneof
    [
      map2 (fun rd imm -> Hw.Isa.Lui (rd, imm)) reg (int_range (-524288) 524287);
      map2 (fun rd imm -> Hw.Isa.Auipc (rd, imm)) reg (int_range (-524288) 524287);
      map2 (fun rd imm -> Hw.Isa.Jal (rd, imm * 2)) reg (int_range (-524288) 524287);
      map3 (fun rd rs1 imm -> Hw.Isa.Jalr (rd, rs1, imm)) reg reg imm12;
      map3
        (fun (op, rs1) rs2 imm -> Hw.Isa.Branch (op, rs1, rs2, imm * 2))
        (pair
           (oneofl
              [ Hw.Isa.Beq; Hw.Isa.Bne; Hw.Isa.Blt; Hw.Isa.Bge; Hw.Isa.Bltu;
                Hw.Isa.Bgeu ])
           reg)
        reg (int_range (-2048) 2047);
      map3
        (fun (op, rd) rs1 imm -> Hw.Isa.Load (op, rd, rs1, imm))
        (pair
           (oneofl
              [ Hw.Isa.Lb; Hw.Isa.Lh; Hw.Isa.Lw; Hw.Isa.Ld; Hw.Isa.Lbu;
                Hw.Isa.Lhu; Hw.Isa.Lwu ])
           reg)
        reg imm12;
      map3
        (fun (op, rs2) rs1 imm -> Hw.Isa.Store (op, rs2, rs1, imm))
        (pair (oneofl [ Hw.Isa.Sb; Hw.Isa.Sh; Hw.Isa.Sw; Hw.Isa.Sd ]) reg)
        reg imm12;
      map3 (fun (op, rd) rs1 imm -> Hw.Isa.Op_imm (op, rd, rs1, imm))
        (pair alu reg) reg imm12;
      map3
        (fun (rd, rs1) rs2 op -> Hw.Isa.Op_imm (op, rd, rs1, rs2))
        (pair reg reg) shamt
        (oneofl [ Hw.Isa.Sll; Hw.Isa.Srl; Hw.Isa.Sra ]);
      map3 (fun (op, rd) rs1 rs2 -> Hw.Isa.Op (op, rd, rs1, rs2)) (pair alu_r reg)
        reg reg;
      map3 (fun rd rs1 rs2 -> Hw.Isa.Mul (rd, rs1, rs2)) reg reg reg;
      map (fun rd -> Hw.Isa.Csr_read_cycle rd) reg;
      oneofl [ Hw.Isa.Ecall; Hw.Isa.Ebreak; Hw.Isa.Fence ];
    ]

let qcheck_isa_roundtrip =
  QCheck2.Test.make ~name:"isa encode/decode roundtrip" ~count:2000 instr_gen
    (fun i -> Hw.Isa.decode (Hw.Isa.encode i) = Some i)

let test_isa_garbage () =
  (* All-zero and all-one words are not valid instructions. *)
  check_bool "zero word" true (Hw.Isa.decode 0l = None);
  check_bool "ones word" true (Hw.Isa.decode 0xffffffffl = None)

let test_isa_program_encoding () =
  let open Hw.Isa in
  let prog = li a0 42 @ [ Ecall ] in
  let s = encode_program prog in
  check_int "length" (4 * List.length prog) (String.length s);
  (* decodes back word by word *)
  List.iteri
    (fun i instr ->
      let w = String.get_int32_le s (4 * i) in
      check_bool "word matches" true (decode w = Some instr))
    prog

(* ------------------------------------------------------------------ *)
(* Machine execution semantics *)

let bare_machine () =
  let m =
    Hw.Machine.create
      { Hw.Machine.default_config with cores = 1; mem_bytes = 1024 * 1024 }
  in
  (* keep traps from killing the core silently in semantics tests *)
  let last = ref None in
  Hw.Machine.set_trap_handler m (fun _ c cause ->
      last := Some cause;
      c.Hw.Machine.halted <- true);
  (m, last)

let run_program m program =
  let code = Hw.Isa.encode_program program in
  Hw.Phys_mem.write_string (Hw.Machine.mem m) ~pos:0x1000 code;
  let c = Hw.Machine.core m 0 in
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.pc <- 0x1000L;
  c.Hw.Machine.halted <- false;
  ignore (Hw.Machine.run m ~core:0 ~fuel:10000);
  c

let test_machine_arith () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  let c =
    run_program m
      (li a0 21
      @ [ Op_imm (Add, a1, a0, 21); Op (Add, a2, a0, a1);
          Op (Sub, a3, a2, a0); Mul (a4, a0, a1);
          Op_imm (Sll, a5, a0, 2); Ecall ])
  in
  check_i64 "addi" 42L (Hw.Machine.read_reg c Hw.Isa.a1);
  check_i64 "add" 63L (Hw.Machine.read_reg c Hw.Isa.a2);
  check_i64 "sub" 42L (Hw.Machine.read_reg c Hw.Isa.a3);
  check_i64 "mul" 882L (Hw.Machine.read_reg c Hw.Isa.a4);
  check_i64 "sll" 84L (Hw.Machine.read_reg c Hw.Isa.a5)

let test_machine_x0 () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  let c = run_program m (li t0 99 @ [ Op (Add, zero, t0, t0); Ecall ]) in
  check_i64 "x0 stays zero" 0L (Hw.Machine.read_reg c Hw.Isa.zero)

let test_machine_branches () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  (* if a0 < a1 then a2 = 1 else a2 = 2 *)
  let prog =
    li a0 3 @ li a1 5
    @ [
        Branch (Blt, a0, a1, 12) (* skip 2 instrs *);
        Op_imm (Add, a2, zero, 2);
        Jal (zero, 8);
        Op_imm (Add, a2, zero, 1);
        Ecall;
      ]
  in
  let c = run_program m prog in
  check_i64 "branch taken path" 1L (Hw.Machine.read_reg c Hw.Isa.a2)

let test_machine_memory () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  let prog =
    li t0 0x2000
    @ li t1 (-5)
    @ [
        Store (Sd, t1, t0, 0);
        Load (Ld, a0, t0, 0);
        Load (Lw, a1, t0, 0);
        Load (Lbu, a2, t0, 0);
        Store (Sb, t1, t0, 16);
        Load (Lb, a3, t0, 16);
        Ecall;
      ]
  in
  let c = run_program m prog in
  check_i64 "ld" (-5L) (Hw.Machine.read_reg c Hw.Isa.a0);
  check_i64 "lw sign" (-5L) (Hw.Machine.read_reg c Hw.Isa.a1);
  check_i64 "lbu" 0xfbL (Hw.Machine.read_reg c Hw.Isa.a2);
  check_i64 "lb sign" (-5L) (Hw.Machine.read_reg c Hw.Isa.a3)

let test_machine_misaligned () =
  (* Misaligned *data* accesses are supported in hardware (like most
     RV64 application cores): a word store/load at an odd address
     round-trips, little-endian at the byte level. Misaligned *fetch*
     addresses raise the precise instruction-address trap instead —
     see the fastpath suite for the pinned JALR regression. *)
  let m, last = bare_machine () in
  let open Hw.Isa in
  let prog =
    li t0 0x2001
    @ li t1 0x01234567
    @ [ Store (Sw, t1, t0, 0); Load (Lwu, a0, t0, 0); Ecall ]
  in
  let c = run_program m prog in
  check_bool "no trap before the exit ecall" true
    (!last = Some (Hw.Trap.Exception Hw.Trap.Ecall_user));
  check_i64 "misaligned store/load round-trips" 0x01234567L
    (Hw.Machine.read_reg c Hw.Isa.a0);
  Alcotest.(check int)
    "low byte lands at the misaligned address" 0x67
    (Hw.Phys_mem.read_u8 (Hw.Machine.mem m) 0x2001)

let test_machine_illegal () =
  let m, last = bare_machine () in
  Hw.Phys_mem.write_u32 (Hw.Machine.mem m) 0x1000 0l;
  let c = Hw.Machine.core m 0 in
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.pc <- 0x1000L;
  c.Hw.Machine.halted <- false;
  ignore (Hw.Machine.run m ~core:0 ~fuel:10);
  match !last with
  | Some (Hw.Trap.Exception (Hw.Trap.Illegal_instruction _)) -> ()
  | _ -> Alcotest.fail "expected illegal instruction"

let test_machine_timer () =
  let m, last = bare_machine () in
  let c = Hw.Machine.core m 0 in
  let open Hw.Isa in
  let code = Hw.Isa.encode_program [ j 0 ] in
  Hw.Phys_mem.write_string (Hw.Machine.mem m) ~pos:0x1000 code;
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.pc <- 0x1000L;
  c.Hw.Machine.halted <- false;
  c.Hw.Machine.timer_cmp <- Some (c.Hw.Machine.cycles + 50);
  ignore (Hw.Machine.run m ~core:0 ~fuel:100000);
  (match !last with
  | Some (Hw.Trap.Interrupt Hw.Trap.Timer) -> ()
  | _ -> Alcotest.fail "expected timer interrupt");
  check_bool "timer disarmed" true (c.Hw.Machine.timer_cmp = None)

let test_machine_rdcycle () =
  let m, _ = bare_machine () in
  let open Hw.Isa in
  let c =
    run_program m
      [ Csr_read_cycle a0; nop; nop; nop; Csr_read_cycle a1; Ecall ]
  in
  let t0 = Hw.Machine.read_reg c Hw.Isa.a0 in
  let t1 = Hw.Machine.read_reg c Hw.Isa.a1 in
  check_bool "cycles advance" true (Int64.compare t1 t0 > 0)

let test_machine_software_interrupt () =
  let m, last = bare_machine () in
  let c = Hw.Machine.core m 0 in
  Hw.Phys_mem.write_string (Hw.Machine.mem m) ~pos:0x1000
    (Hw.Isa.encode_program [ Hw.Isa.j 0 ]);
  Hw.Machine.reset_core_state c;
  c.Hw.Machine.pc <- 0x1000L;
  c.Hw.Machine.halted <- false;
  Hw.Machine.post_interrupt m ~core:0 Hw.Trap.Software;
  ignore (Hw.Machine.run m ~core:0 ~fuel:10);
  match !last with
  | Some (Hw.Trap.Interrupt Hw.Trap.Software) -> ()
  | _ -> Alcotest.fail "expected software interrupt"

let test_machine_phys_check () =
  let m, last = bare_machine () in
  Hw.Machine.set_phys_check m (fun ~core:_ ~access:_ ~paddr -> paddr < 0x3000);
  let open Hw.Isa in
  let _ = run_program m (li t0 0x4000 @ [ Load (Ld, a0, t0, 0); Ecall ]) in
  (match !last with
  | Some (Hw.Trap.Exception (Hw.Trap.Access_fault (Hw.Trap.Read, 0x4000L))) -> ()
  | _ -> Alcotest.fail "expected access fault");
  (* translate helper agrees *)
  let c = Hw.Machine.core m 0 in
  match Hw.Machine.translate m c ~access:Hw.Trap.Read ~vaddr:0x4000L with
  | Error (Hw.Trap.Access_fault _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "translate should deny"

let test_machine_dma () =
  let m, _ = bare_machine () in
  Hw.Machine.set_dma_check m (fun ~paddr ~len:_ -> paddr >= 0x8000);
  (match Hw.Machine.dma_write m ~paddr:0x8000 "data" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "allowed dma failed");
  (match Hw.Machine.dma_read m ~paddr:0x8000 ~len:4 with
  | Ok "data" -> ()
  | Ok _ | Error _ -> Alcotest.fail "dma readback");
  match Hw.Machine.dma_write m ~paddr:0x1000 "x" with
  | Error (Hw.Trap.Access_fault _) -> ()
  | Ok () | Error _ -> Alcotest.fail "denied dma succeeded"

let suite =
  ( "hw",
    [
      Alcotest.test_case "phys_mem" `Quick test_phys_mem;
      QCheck_alcotest.to_alcotest qcheck_nonzero_words;
      Alcotest.test_case "phys_mem: nonzero-word scan bounds" `Quick
        test_nonzero_words_bounds;
      Alcotest.test_case "cache basics" `Quick test_cache_basic;
      Alcotest.test_case "cache LRU eviction" `Quick test_cache_eviction;
      Alcotest.test_case "cache custom index" `Quick test_cache_partition_fn;
      Alcotest.test_case "tlb" `Quick test_tlb;
      Alcotest.test_case "pmp" `Quick test_pmp;
      Alcotest.test_case "page table walk/map" `Quick test_page_table;
      Alcotest.test_case "superpage leaf" `Quick test_superpage;
      Alcotest.test_case "pte encoding" `Quick test_pte_encoding;
      QCheck_alcotest.to_alcotest qcheck_isa_roundtrip;
      Alcotest.test_case "isa rejects garbage" `Quick test_isa_garbage;
      Alcotest.test_case "program encoding" `Quick test_isa_program_encoding;
      Alcotest.test_case "machine arithmetic" `Quick test_machine_arith;
      Alcotest.test_case "machine x0" `Quick test_machine_x0;
      Alcotest.test_case "machine branches" `Quick test_machine_branches;
      Alcotest.test_case "machine loads/stores" `Quick test_machine_memory;
      Alcotest.test_case "misaligned data access" `Quick
        test_machine_misaligned;
      Alcotest.test_case "illegal instruction" `Quick test_machine_illegal;
      Alcotest.test_case "timer interrupt" `Quick test_machine_timer;
      Alcotest.test_case "rdcycle" `Quick test_machine_rdcycle;
      Alcotest.test_case "software interrupt" `Quick test_machine_software_interrupt;
      Alcotest.test_case "phys check fault" `Quick test_machine_phys_check;
      Alcotest.test_case "dma checks" `Quick test_machine_dma;
    ] )
