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
   checker: [read_u64] over every word of a range, keeping the non-zero
   ones. Writes (zeros included) are biased to each frame's first and
   last word and to the last frame of memory, and every frame is
   scanned, so a scan that strays past its range or skips an edge word
   shows up. Extra 8-aligned ranges whose start and length are mostly
   not multiples of 32 bytes cover the one-word tail after the
   four-word groups. *)
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
  (* [(first word, word count)], short counts drawn often *)
  let range =
    QCheck2.Gen.(
      let* first = word in
      let* n = oneof [ int_range 0 9; int_range 0 (words - first) ] in
      return (first, min n (words - first)))
  in
  let frames =
    List.init pages (fun f -> (f * words_per_page, words_per_page))
  in
  QCheck2.Test.make ~name:"phys_mem: nonzero-word scan = read_u64 loop"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 32) (pair word value))
        (list_size (int_range 0 8) range))
    (fun (writes, ranges) ->
      let m = Hw.Phys_mem.create ~size:(pages * Hw.Phys_mem.page_size) in
      List.iter (fun (w, v) -> Hw.Phys_mem.write_u64 m (w * 8) v) writes;
      List.for_all
        (fun (first, n) ->
          let naive =
            List.filter_map
              (fun i ->
                let p = (first + i) * 8 in
                let v = Hw.Phys_mem.read_u64 m p in
                if v <> 0L then Some (p, v) else None)
              (List.init n Fun.id)
          in
          let scanned = ref [] in
          Hw.Phys_mem.iter_nonzero_words m ~pos:(first * 8) ~len:(n * 8)
            (fun p v -> scanned := (p, v) :: !scanned);
          List.rev !scanned = naive)
        (frames @ ranges))

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

(* Every path that mutates stored bytes moves the generation of each
   page it touches, and of no other page: the invariant pass replays a
   page-table walk only while its frames' generations stand still. *)
let test_generation_moves () =
  let page = Hw.Phys_mem.page_size in
  let pages = 6 in
  let machine =
    Hw.Machine.create
      { Hw.Machine.default_config with mem_bytes = pages * page }
  in
  let m = Hw.Machine.mem machine in
  let moves label ~touched f =
    let before = Array.init pages (Hw.Phys_mem.generation m) in
    f ();
    Array.iteri
      (fun p g ->
        let now = Hw.Phys_mem.generation m p in
        if List.mem p touched then
          check_bool (Printf.sprintf "%s moves page %d" label p) true (now > g)
        else check_int (Printf.sprintf "%s leaves page %d" label p) g now)
      before
  in
  moves "write_u8" ~touched:[ 1 ] (fun () ->
      Hw.Phys_mem.write_u8 m (page + 5) 0xff);
  moves "write_u16 across a page boundary" ~touched:[ 1; 2 ] (fun () ->
      Hw.Phys_mem.write_u16 m ((2 * page) - 1) 0xffff);
  moves "write_u32 across a page boundary" ~touched:[ 2; 3 ] (fun () ->
      Hw.Phys_mem.write_u32 m ((3 * page) - 2) 0xffffl);
  moves "write_u64 across a page boundary" ~touched:[ 0; 1 ] (fun () ->
      Hw.Phys_mem.write_u64 m (page - 4) 1L);
  moves "write_string over three pages" ~touched:[ 0; 1; 2 ] (fun () ->
      Hw.Phys_mem.write_string m ~pos:(page - 3) (String.make (page + 4) 'x'));
  moves "zero_range" ~touched:[ 1; 2 ] (fun () ->
      Hw.Phys_mem.zero_range m ~pos:page ~len:(2 * page));
  moves "an empty zero_range" ~touched:[] (fun () ->
      Hw.Phys_mem.zero_range m ~pos:page ~len:0);
  moves "inject_bit_flip" ~touched:[ 2 ] (fun () ->
      Hw.Phys_mem.inject_bit_flip m ~paddr:((2 * page) + 16) ~bit:3);
  moves "scrub correcting the flip" ~touched:[ 2 ] (fun () ->
      match Hw.Phys_mem.scrub m ~pos:(2 * page) ~len:page with
      | `Corrected 1 -> ()
      | _ -> Alcotest.fail "flip not corrected");
  Hw.Phys_mem.inject_bit_flip m ~paddr:((3 * page) + 8) ~bit:9;
  moves "a store absorbing a pending fault" ~touched:[ 3 ] (fun () ->
      Hw.Phys_mem.write_u8 m ((3 * page) + 8) 1);
  check_int "fault absorbed" 0 (Hw.Phys_mem.pending_faults m);
  moves "DMA" ~touched:[ 4; 5 ] (fun () ->
      match Hw.Machine.dma_write machine ~paddr:((5 * page) - 2) "dma!" with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "DMA refused");
  moves "reads" ~touched:[] (fun () ->
      ignore (Hw.Phys_mem.read_u64 m page);
      ignore (Hw.Phys_mem.read_string m ~pos:0 ~len:(pages * page));
      Hw.Phys_mem.iter_nonzero_words m ~pos:0 ~len:page (fun _ _ -> ()))

(* Frames on first write against the flat memory they replaced
   ([Sanctorum_oracle.Phys_mem_ref]): random operation sequences on 2–6
   frame memories. Addresses cluster at frame edges, so words straddle
   two frames, strings and zeroed ranges span them, and stores, flips
   and scrubs meet the same words often enough that stores absorb
   pending faults; some frames are never written. After every step the
   two agree on the step's result (or both raise), every byte, every
   page's generation, the write hook's (pos, len) log and the ECC
   counts. *)
module Mem_ref = Sanctorum_oracle.Phys_mem_ref

type mem_op =
  | Read of int * int (* width, pos *)
  | Write of int * int * int64
  | Read_string of int * int
  | Write_string of int * string
  | Zero of int * int
  | Flip of int * int (* paddr, bit *)
  | Scrub of int * int
  | Nonzero of int * int

let show_mem_op = function
  | Read (w, p) -> Printf.sprintf "read%d 0x%x" (8 * w) p
  | Write (w, p, v) -> Printf.sprintf "write%d 0x%x %Lx" (8 * w) p v
  | Read_string (p, n) -> Printf.sprintf "read_string 0x%x %d" p n
  | Write_string (p, s) -> Printf.sprintf "write_string 0x%x %S" p s
  | Zero (p, n) -> Printf.sprintf "zero 0x%x %d" p n
  | Flip (p, b) -> Printf.sprintf "flip 0x%x bit %d" p b
  | Scrub (p, n) -> Printf.sprintf "scrub 0x%x %d" p n
  | Nonzero (p, n) -> Printf.sprintf "nonzero 0x%x %d" p n

(* The operations both memories share, so one dispatch drives either. *)
module type MEM = sig
  type t

  val read_u8 : t -> int -> int
  val write_u8 : t -> int -> int -> unit
  val read_u16 : t -> int -> int
  val write_u16 : t -> int -> int -> unit
  val read_u32 : t -> int -> int32
  val write_u32 : t -> int -> int32 -> unit
  val read_u64 : t -> int -> int64
  val write_u64 : t -> int -> int64 -> unit
  val read_string : t -> pos:int -> len:int -> string
  val write_string : t -> pos:int -> string -> unit
  val zero_range : t -> pos:int -> len:int -> unit
  val inject_bit_flip : t -> paddr:int -> bit:int -> unit

  val scrub :
    t ->
    pos:int ->
    len:int ->
    [ `Clean | `Corrected of int | `Uncorrectable of int ]

  val iter_nonzero_words :
    t -> pos:int -> len:int -> (int -> int64 -> unit) -> unit
end

(* [op]'s result on [mem] as a string, or "Invalid_argument". *)
let apply (type m) (module M : MEM with type t = m) (mem : m) op =
  let ok () = "" in
  try
    match op with
    | Read (1, p) -> string_of_int (M.read_u8 mem p)
    | Read (2, p) -> string_of_int (M.read_u16 mem p)
    | Read (4, p) -> Int32.to_string (M.read_u32 mem p)
    | Read (_, p) -> Int64.to_string (M.read_u64 mem p)
    | Write (1, p, v) -> ok (M.write_u8 mem p (Int64.to_int v))
    | Write (2, p, v) -> ok (M.write_u16 mem p (Int64.to_int v))
    | Write (4, p, v) -> ok (M.write_u32 mem p (Int64.to_int32 v))
    | Write (_, p, v) -> ok (M.write_u64 mem p v)
    | Read_string (pos, len) -> M.read_string mem ~pos ~len
    | Write_string (pos, s) -> ok (M.write_string mem ~pos s)
    | Zero (pos, len) -> ok (M.zero_range mem ~pos ~len)
    | Flip (paddr, bit) -> ok (M.inject_bit_flip mem ~paddr ~bit)
    | Scrub (pos, len) -> (
        match M.scrub mem ~pos ~len with
        | `Clean -> "clean"
        | `Corrected n -> Printf.sprintf "corrected %d" n
        | `Uncorrectable p -> Printf.sprintf "uncorrectable 0x%x" p)
    | Nonzero (pos, len) ->
        let acc = ref [] in
        M.iter_nonzero_words mem ~pos ~len (fun p v ->
            acc := Printf.sprintf "0x%x=%Lx" p v :: !acc);
        String.concat "," (List.rev !acc)
  with Invalid_argument _ -> "Invalid_argument"

let qcheck_frames_on_first_write =
  let page = Hw.Phys_mem.page_size in
  let open QCheck2.Gen in
  let mem_ops pages =
    let size = pages * page in
    let frame = int_range 0 (pages - 1) in
    let pos =
      frequency
        [
          (2, int_range 0 (size - 1));
          ( 3,
            map2
              (fun f d -> (f * page) + d)
              (int_range 1 (pages - 1))
              (int_range (-8) 7) );
          (1, map2 (fun f d -> (f * page) + d) frame (int_range 0 24));
          (1, int_range (size - 16) (size - 1));
        ]
    in
    let aligned = map (fun p -> p land lnot 7) pos in
    (* a width, and an address that often splits the word across two
       frames *)
    let access =
      let* w = oneofl [ 1; 2; 4; 8 ] in
      let straddle =
        map2
          (fun f k -> (f * page) - k)
          (int_range 1 (pages - 1))
          (int_range 1 (max 1 (w - 1)))
      in
      map (fun p -> (w, p)) (oneof [ pos; straddle ])
    in
    let value = oneof [ return 0L; return (-1L); int64 ] in
    let op =
      oneof
        [
          map (fun (w, p) -> Read (w, p)) access;
          map2 (fun (w, p) v -> Write (w, p, v)) access value;
          map2
            (fun p n -> Read_string (p, n))
            pos
            (oneof [ int_range 0 16; int_range 0 (2 * page) ]);
          map2
            (fun p s -> Write_string (p, s))
            pos
            (string_size ~gen:(oneofl [ '\000'; 'a'; '\xff' ])
               (oneof [ int_range 0 16; int_range 0 (page + 16) ]));
          map2
            (fun p n -> Zero (p, n))
            pos
            (oneof [ return 0; int_range 1 64; int_range page (2 * page) ]);
          map (fun f -> Zero (f * page, page)) frame;
          map2 (fun p b -> Flip (p, b)) pos (int_range 0 63);
          map2 (fun p n -> Scrub (p, n)) pos (int_range 1 (2 * page));
          map2 (fun p n -> Nonzero (p, 8 * n)) aligned (int_range 0 (page / 4));
          return (Nonzero (0, size));
        ]
    in
    list_size (int_range 1 40) op
  in
  QCheck2.Test.make ~name:"phys_mem: frames on first write = flat reference"
    ~count:500
    ~print:(fun (pages, ops) ->
      Printf.sprintf "%d frames: %s" pages
        (String.concat "; " (List.map show_mem_op ops)))
    (let* pages = int_range 2 6 in
     let* ops = mem_ops pages in
     return (pages, ops))
    (fun (pages, ops) ->
      let size = pages * page in
      let m = Hw.Phys_mem.create ~size and r = Mem_ref.create ~size in
      let log_m = ref [] and log_r = ref [] in
      Hw.Phys_mem.set_write_hook m
        (Some (fun ~pos ~len -> log_m := (pos, len) :: !log_m));
      Mem_ref.set_write_hook r
        (Some (fun ~pos ~len -> log_r := (pos, len) :: !log_r));
      let agree step op =
        let got = apply (module Hw.Phys_mem) m op in
        let want = apply (module Mem_ref) r op in
        let differs what =
          QCheck2.Test.fail_reportf "step %d (%s): %s differs" step
            (show_mem_op op) what
        in
        if got <> want then differs (Printf.sprintf "result %S vs %S" got want);
        if
          Hw.Phys_mem.read_string m ~pos:0 ~len:size
          <> Mem_ref.read_string r ~pos:0 ~len:size
        then differs "memory";
        for p = 0 to pages - 1 do
          if Hw.Phys_mem.generation m p <> Mem_ref.generation r p then
            differs (Printf.sprintf "generation of page %d" p)
        done;
        if !log_m <> !log_r then differs "write hook log";
        if
          Hw.Phys_mem.pending_faults m <> Mem_ref.pending_faults r
          || Hw.Phys_mem.corrected_count m <> Mem_ref.corrected_count r
          || Hw.Phys_mem.uncorrectable_count m <> Mem_ref.uncorrectable_count r
        then differs "ECC counts"
      in
      List.iteri agree ops;
      true)

(* A 16 MiB memory costs the host its frame table, not its bytes. *)
let test_create_allocates_no_frames () =
  let before = Gc.allocated_bytes () in
  let m = Hw.Phys_mem.create ~size:(16 lsl 20) in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity m);
  check_bool
    (Printf.sprintf "create allocates %.0f bytes, under 64 KiB" bytes)
    true (bytes < 65536.)

(* Every memory starts on the one shared zero frame, and fleet shards
   read it from parallel domains: no write to one memory, from any
   domain and by any path, may reach another. *)
let test_shared_zero_frame () =
  let page = Hw.Phys_mem.page_size in
  let size = 4 * page in
  let zeros m label =
    Alcotest.(check string)
      label (String.make size '\000')
      (Hw.Phys_mem.read_string m ~pos:0 ~len:size);
    Hw.Phys_mem.iter_nonzero_words m ~pos:0 ~len:size (fun p _ ->
        Alcotest.failf "%s: non-zero word at 0x%x" label p)
  in
  let before = Hw.Phys_mem.create ~size in
  let writer =
    Domain.spawn (fun () ->
        let m = Hw.Phys_mem.create ~size in
        for p = 0 to 3 do
          let base = p * page in
          Hw.Phys_mem.write_u8 m base 0xff;
          Hw.Phys_mem.write_u64 m (base + 8) (-1L);
          Hw.Phys_mem.write_string m ~pos:(base + 64) (String.make 64 '\xff');
          Hw.Phys_mem.inject_bit_flip m ~paddr:(base + 256) ~bit:7;
          Hw.Phys_mem.inject_bit_flip m ~paddr:(base + 264) ~bit:1
        done;
        ignore (Hw.Phys_mem.scrub m ~pos:0 ~len:size);
        Hw.Phys_mem.write_u64 m ((2 * page) - 4) (-1L);
        m)
  in
  let written = Domain.join writer in
  check_bool "the writer's memory holds its bytes" true
    (Hw.Phys_mem.read_u64 written 8 = -1L);
  zeros before "a memory created before the writes";
  zeros (Hw.Phys_mem.create ~size) "a memory created after them"

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
  ignore (Hw.Cache.access c ~paddr:0x2000);
  check_int "custom index low" 0 (Hw.Cache.set_of_paddr c 0x10);
  check_int "custom index high" 1 (Hw.Cache.set_of_paddr c 0x2000);
  Hw.Cache.flush_range c ~lo:0x40 ~hi:0x80;
  check_bool "range flush" false (Hw.Cache.probe c ~paddr:0x0);
  check_bool "other set kept" true (Hw.Cache.probe c ~paddr:0x2000)

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

(* The epoch flush against the valid-bit cache and TLB it replaced
   ([Sanctorum_oracle.Cache_ref], [Tlb_ref]): random operation sequences
   on a 4-set, 2-way cache over three times its capacity and a 4-entry
   TLB over 8 pages, so lines and entries fill, evict and flush often.
   The cache takes the default index or a colouring like Sanctum's (two
   128-byte regions, two sets each), and a range flush is checked
   against the reference's [flush_set] on the set of each line of the
   range. After every step the two agree on the step's hit, miss or
   slot, the statistics, every valid line and entry, the entry count
   and the generation. *)
module Cache_ref = Sanctorum_oracle.Cache_ref
module Tlb_ref = Sanctorum_oracle.Tlb_ref

type flush_op =
  | Access of int
  | Probe of int
  | Flush_all
  | Flush_range of int * int
  | Insert of int * int
  | Find of int
  | Tlb_probe of int
  | Flush
  | Flush_vpn of int

let print_flush_op = function
  | Access p -> Printf.sprintf "access %d" p
  | Probe p -> Printf.sprintf "probe %d" p
  | Flush_all -> "flush_all"
  | Flush_range (lo, hi) -> Printf.sprintf "flush_range [%d, %d)" lo hi
  | Insert (v, p) -> Printf.sprintf "insert %d->%d" v p
  | Find v -> Printf.sprintf "find %d" v
  | Tlb_probe v -> Printf.sprintf "tlb_probe %d" v
  | Flush -> "flush"
  | Flush_vpn v -> Printf.sprintf "flush_vpn %d" v

let qcheck_epoch_flush =
  let cfg =
    { Hw.Cache.default_l1 with Hw.Cache.sets = 4; ways = 2; line_bytes = 16 }
  in
  let gen_op =
    QCheck2.Gen.(
      let paddr = int_range 0 ((3 * 4 * 2 * 16) - 1) and vpn = int_range 0 7 in
      frequency
        [
          (6, map (fun p -> Access p) paddr);
          (2, map (fun p -> Probe p) paddr);
          (1, return Flush_all);
          (2, map2 (fun lo len -> Flush_range (lo, lo + len)) paddr
                (int_range 0 200));
          (4, map2 (fun v p -> Insert (v, p)) vpn (int_range 0 99));
          (4, map (fun v -> Find v) vpn);
          (1, map (fun v -> Tlb_probe v) vpn);
          (1, return Flush);
          (2, map (fun v -> Flush_vpn v) vpn);
        ])
  in
  let perms = { Hw.Tlb.r = true; w = true; x = false; u = true } in
  let colour paddr = ((paddr / 128 mod 2 * 2) + (paddr / 16 mod 2)) land 3 in
  QCheck2.Test.make ~name:"cache/TLB epoch flush = valid-bit reference"
    ~count:300
    ~print:QCheck2.Print.(pair bool (list print_flush_op))
    QCheck2.Gen.(pair bool (list_size (int_range 1 80) gen_op))
    (fun (coloured, ops) ->
      let c = Hw.Cache.create cfg in
      let c_ref =
        if coloured then begin
          Hw.Cache.set_index_fn c colour;
          Cache_ref.create ~index:colour cfg
        end
        else Cache_ref.create cfg
      in
      let t = Hw.Tlb.create ~entries:4 and t_ref = Tlb_ref.create ~entries:4 in
      let lines iter x =
        let acc = ref [] in
        iter x (fun ~set ~paddr -> acc := (set, paddr) :: !acc);
        List.rev !acc
      in
      let entries iter x =
        let acc = ref [] in
        iter x (fun ~vpn ~ppn ~perms -> acc := (vpn, ppn, perms) :: !acc);
        List.rev !acc
      in
      let step op =
        (match op with
        | Access paddr ->
            fst (Hw.Cache.access c ~paddr) = Cache_ref.access_hit c_ref ~paddr
        | Probe paddr -> Hw.Cache.probe c ~paddr = Cache_ref.probe c_ref ~paddr
        | Flush_all ->
            Hw.Cache.flush_all c;
            Cache_ref.flush_all c_ref;
            true
        | Flush_range (lo, hi) ->
            Hw.Cache.flush_range c ~lo ~hi;
            let line = cfg.Hw.Cache.line_bytes in
            let rec per_line a =
              if a < hi then begin
                Cache_ref.flush_set c_ref (Cache_ref.set_of_paddr c_ref a);
                per_line (a + line)
              end
            in
            if lo < hi then per_line (lo / line * line);
            true
        | Insert (vpn, ppn) ->
            Hw.Tlb.insert t ~vpn ~ppn ~perms;
            Tlb_ref.insert t_ref ~vpn ~ppn ~perms;
            true
        | Find vpn -> Hw.Tlb.find t ~vpn = Tlb_ref.find t_ref ~vpn
        | Tlb_probe vpn -> Hw.Tlb.probe t ~vpn = Tlb_ref.probe t_ref ~vpn
        | Flush ->
            Hw.Tlb.flush t;
            Tlb_ref.flush t_ref;
            true
        | Flush_vpn vpn ->
            Hw.Tlb.flush_vpn t ~vpn;
            Tlb_ref.flush_vpn t_ref ~vpn;
            true)
        && Hw.Cache.stats c = Cache_ref.stats c_ref
        && lines Hw.Cache.iter_tags c = lines Cache_ref.iter_tags c_ref
        && Hw.Tlb.stats t = Tlb_ref.stats t_ref
        && entries Hw.Tlb.iter_entries t = entries Tlb_ref.iter_entries t_ref
        && Hw.Tlb.entry_count t = Tlb_ref.entry_count t_ref
        && Hw.Tlb.generation t = Tlb_ref.generation t_ref
      in
      List.for_all step ops)

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
  (* one walk yields the leaf and its cost: 3 PTE fetches *)
  (match
     Hw.Page_table.walk mem ~root_ppn:root ~vaddr:0x40000123
       ~pte_fetch_ok:(fun _ -> true)
   with
  | Ok (100, p), steps ->
      check_bool "perms" true (p = perms);
      check_int "walk steps" 3 steps
  | Ok _, _ -> Alcotest.fail "wrong ppn"
  | Error _, _ -> Alcotest.fail "walk failed");
  (* unmapped sibling: the invalid leaf PTE was still fetched *)
  (match
     Hw.Page_table.walk mem ~root_ppn:root ~vaddr:0x40001000
       ~pte_fetch_ok:(fun _ -> true)
   with
  | Error Hw.Page_table.Invalid_mapping, steps ->
      check_int "unmapped walk steps" 3 steps
  | (Ok _ | Error _), _ -> Alcotest.fail "unmapped vaddr translated");
  (* remap rejection *)
  (match
     Hw.Page_table.map mem ~root_ppn:root ~vaddr:0x40000000 ~ppn:101 ~perms
       ~alloc_table
   with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "double map accepted");
  (* pte fetch veto: the Sanctum page-walk invariant. The leaf table
     (ppn 3) is refused; the two fetches before it are counted, the
     refused one is not. *)
  (match
     Hw.Page_table.walk mem ~root_ppn:root ~vaddr:0x40000123
       ~pte_fetch_ok:(fun paddr -> paddr < 0x3000)
   with
  | Error (Hw.Page_table.Walk_access_denied paddr), steps ->
      check_bool "denied in the leaf table" true (paddr >= 0x3000);
      check_int "vetoed walk steps" 2 steps
  | (Ok _ | Error _), _ -> Alcotest.fail "vetoed walk succeeded");
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
  | Ok (ppn, _), steps ->
      check_int "superpage frame" 517 ppn;
      check_int "superpage walk steps" 2 steps
  | Error _, _ -> Alcotest.fail "superpage walk failed"

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
      Alcotest.test_case "phys_mem: every mutation moves its pages' generations"
        `Quick test_generation_moves;
      QCheck_alcotest.to_alcotest qcheck_frames_on_first_write;
      Alcotest.test_case "phys_mem: create allocates no frame" `Quick
        test_create_allocates_no_frames;
      Alcotest.test_case "phys_mem: writes never reach the shared zero frame"
        `Quick test_shared_zero_frame;
      Alcotest.test_case "cache basics" `Quick test_cache_basic;
      Alcotest.test_case "cache LRU eviction" `Quick test_cache_eviction;
      Alcotest.test_case "cache custom index" `Quick test_cache_partition_fn;
      Alcotest.test_case "tlb" `Quick test_tlb;
      QCheck_alcotest.to_alcotest qcheck_epoch_flush;
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
