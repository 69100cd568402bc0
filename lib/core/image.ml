module Hw = Sanctorum_hw

type page = { vaddr : int; r : bool; w : bool; x : bool; contents : string }

type t = {
  evbase : int;
  evsize : int;
  mailbox_slots : int;
  pages : page list;
  shared : (int * int) list;
  threads : (int64 * int64) list;
}

let page_size = Hw.Phys_mem.page_size
let max_vaddr = 1 lsl Hw.Page_table.vpn_bits

let make ~evbase ~evsize ?(mailbox_slots = 4) ?(shared = []) ?(threads = [])
    pages =
  if evbase mod page_size <> 0 || evsize mod page_size <> 0 || evsize <= 0 then
    invalid_arg "Image.make: evrange must be page-aligned and non-empty";
  if evbase < 0 || evbase + evsize > max_vaddr then
    invalid_arg "Image.make: evrange outside the address space";
  List.iter
    (fun p ->
      if p.vaddr mod page_size <> 0 then invalid_arg "Image.make: unaligned page";
      if p.vaddr < evbase || p.vaddr + page_size > evbase + evsize then
        invalid_arg "Image.make: page outside evrange";
      if String.length p.contents > page_size then
        invalid_arg "Image.make: page contents too large")
    pages;
  List.iter
    (fun (vaddr, len) ->
      if vaddr mod page_size <> 0 || len <= 0 || len mod page_size <> 0 then
        invalid_arg "Image.make: unaligned shared window";
      if vaddr + len > evbase && evbase + evsize > vaddr then
        invalid_arg "Image.make: shared window overlaps evrange")
    shared;
  { evbase; evsize; mailbox_slots; pages; shared; threads }

let of_program ~evbase ?(data_pages = 1) ?(mailbox_slots = 4) ?(shared = [])
    program =
  let code = Hw.Isa.encode_program program in
  if String.length code > page_size then
    invalid_arg "Image.of_program: program exceeds one page";
  let evsize = (1 + data_pages) * page_size in
  let data =
    List.init data_pages (fun i ->
        {
          vaddr = evbase + ((i + 1) * page_size);
          r = true;
          w = true;
          x = false;
          contents = "";
        })
  in
  let pages =
    { vaddr = evbase; r = true; w = false; x = true; contents = code } :: data
  in
  let stack_top = Int64.of_int (evbase + evsize - 16) in
  make ~evbase ~evsize ~mailbox_slots ~shared
    ~threads:[ (Int64.of_int evbase, stack_top) ]
    pages

let mapped_vaddrs t =
  List.map (fun p -> p.vaddr) t.pages
  @ List.concat_map
      (fun (vaddr, len) -> List.init (len / page_size) (fun i -> vaddr + (i * page_size)))
      t.shared

let required_page_tables t =
  let vaddrs = mapped_vaddrs t in
  let distinct shift =
    List.sort_uniq compare (List.map (fun v -> v lsr shift) vaddrs)
  in
  let level1 = List.map (fun p -> (p lsl 30, 1)) (distinct 30) in
  let level0 = List.map (fun p -> (p lsl 21, 0)) (distinct 21) in
  ((0, 2) :: level1) @ level0

let page_count t = List.length (required_page_tables t) + List.length t.pages

let pad contents =
  contents ^ String.make (page_size - String.length contents) '\000'

let measurement t =
  let ctx = Measurement.start () in
  Measurement.extend_create ctx ~evbase:t.evbase ~evsize:t.evsize
    ~mailbox_count:t.mailbox_slots;
  List.iter
    (fun (vaddr, level) -> Measurement.extend_page_table ctx ~vaddr ~level)
    (required_page_tables t);
  List.iter
    (fun p ->
      Measurement.extend_page ctx ~vaddr:p.vaddr ~r:p.r ~w:p.w ~x:p.x
        ~contents:(pad p.contents))
    t.pages;
  List.iter
    (fun (vaddr, len) -> Measurement.extend_shared ctx ~vaddr ~len)
    t.shared;
  List.iter
    (fun (entry_pc, entry_sp) ->
      Measurement.extend_thread ctx ~entry_pc ~entry_sp)
    t.threads;
  Measurement.finalize ctx
