type perms = { r : bool; w : bool; x : bool; u : bool }

let levels = 3
let entries_per_table = 512
let vpn_bits = 39
let pte_size = 8

(* PTE layout (RISC-V Sv39): bit0 V, bit1 R, bit2 W, bit3 X, bit4 U,
   PPN in bits 10..53. An entry with V set and R=W=X=0 points to the
   next table level; any of R/W/X set makes it a leaf. *)
let bit n v = if v then Int64.shift_left 1L n else 0L

let encode_pte ~ppn ~perms ~valid =
  Int64.logor
    (Int64.shift_left (Int64.of_int ppn) 10)
    (Int64.logor (bit 0 valid)
       (Int64.logor (bit 1 perms.r)
          (Int64.logor (bit 2 perms.w)
             (Int64.logor (bit 3 perms.x) (bit 4 perms.u)))))

let decode_pte v =
  let get n = Int64.logand (Int64.shift_right_logical v n) 1L = 1L in
  if not (get 0) then Error ()
  else begin
    let perms = { r = get 1; w = get 2; x = get 3; u = get 4 } in
    let ppn =
      Int64.to_int (Int64.shift_right_logical v 10) land 0xfffffffffff
    in
    let is_leaf = perms.r || perms.w || perms.x in
    Ok (ppn, perms, is_leaf)
  end

let vpn_index vaddr level =
  (* level 2 is the root; each index is 9 bits. *)
  (vaddr lsr (12 + (9 * level))) land (entries_per_table - 1)

let perm_bits perms = Int64.to_int (encode_pte ~ppn:0 ~perms ~valid:false)

(* A walk's result, one int. Bits 5-6 hold the PTE fetches made. A
   walk that reaches a leaf returns a non-negative int: the 4 KiB frame
   from bit 7 up and the leaf's r/w/x/u bits in place (bits 1-4). A
   failed walk sets the sign bit, and bit 0 when a PTE fetch was
   refused. *)
let perm_mask = 0x1e
let steps_shift = 5
let frame_shift = 7
let failed ~denied steps = min_int lor (steps lsl steps_shift) lor denied

let found ~frame ~perms steps =
  (frame lsl frame_shift) lor (steps lsl steps_shift) lor perms

let walk_frame code = code lsr frame_shift
let walk_perms code = code land perm_mask
let walk_steps code = (code lsr steps_shift) land 3
let walk_denied code = code land 1 = 1

(* One level of the walk, top-level so that no closure is built. A
   corrupted intermediate PTE can point the walk outside physical
   memory; real hardware reports that as an invalid translation, not a
   crash. *)
let rec walk_at mem vaddr pte_fetch_ok table_ppn level steps =
  let pte_addr =
    Phys_mem.page_base table_ppn + (pte_size * vpn_index vaddr level)
  in
  if pte_addr < 0 || pte_addr + pte_size > Phys_mem.size mem then
    failed ~denied:0 steps
  else if not (pte_fetch_ok pte_addr) then failed ~denied:1 steps
  else
    let steps = steps + 1 and pte = Phys_mem.read_word mem pte_addr in
    let ppn = (pte lsr 10) land 0xfffffffffff in
    if pte land 1 = 0 then failed ~denied:0 steps
    else if pte land 0xe <> 0 then
      (* A leaf (any of r/w/x): resolve a superpage to the 4 KiB frame
         holding [vaddr]. *)
      let frame = ppn + ((vaddr lsr 12) land ((1 lsl (9 * level)) - 1)) in
      found ~frame ~perms:(pte land perm_mask) steps
    else if level = 0 then failed ~denied:0 steps
    else walk_at mem vaddr pte_fetch_ok ppn (level - 1) steps

let walk mem ~root_ppn ~vaddr ~pte_fetch_ok =
  walk_at mem vaddr pte_fetch_ok root_ppn (levels - 1) 0

let map mem ~root_ppn ~vaddr ~ppn ~perms ~alloc_table =
  let rec go table_ppn level =
    let pte_addr =
      Phys_mem.page_base table_ppn + (pte_size * vpn_index vaddr level)
    in
    if level = 0 then begin
      match decode_pte (Phys_mem.read_u64 mem pte_addr) with
      | Ok _ -> invalid_arg "Page_table.map: slot already mapped"
      | Error () ->
          Phys_mem.write_u64 mem pte_addr (encode_pte ~ppn ~perms ~valid:true)
    end
    else begin
      match decode_pte (Phys_mem.read_u64 mem pte_addr) with
      | Ok (next_ppn, _, false) -> go next_ppn (level - 1)
      | Ok (_, _, true) -> invalid_arg "Page_table.map: superpage in the way"
      | Error () ->
          let next_ppn = alloc_table () in
          Phys_mem.write_u64 mem pte_addr
            (encode_pte ~ppn:next_ppn
               ~perms:{ r = false; w = false; x = false; u = false }
               ~valid:true);
          go next_ppn (level - 1)
    end
  in
  go root_ppn (levels - 1)

let unmap mem ~root_ppn ~vaddr =
  let rec go table_ppn level =
    let pte_addr =
      Phys_mem.page_base table_ppn + (pte_size * vpn_index vaddr level)
    in
    match decode_pte (Phys_mem.read_u64 mem pte_addr) with
    | Error () -> false
    | Ok (_, _, true) when level > 0 -> false
    | Ok (_, _, true) ->
        Phys_mem.write_u64 mem pte_addr 0L;
        true
    | Ok (next_ppn, _, false) ->
        if level = 0 then false else go next_ppn (level - 1)
  in
  go root_ppn (levels - 1)
