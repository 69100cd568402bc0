type perms = { r : bool; w : bool; x : bool; u : bool }
type fault = Invalid_mapping | Walk_access_denied of int

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

let walk mem ~root_ppn ~vaddr ~pte_fetch_ok =
  let rec go table_ppn level steps =
    let pte_addr =
      Phys_mem.page_base table_ppn + (pte_size * vpn_index vaddr level)
    in
    (* A corrupted intermediate PTE can point the walk outside physical
       memory; real hardware reports that as an invalid translation,
       not a crash. *)
    if pte_addr < 0 || pte_addr + pte_size > Phys_mem.size mem then
      (Error Invalid_mapping, steps)
    else if not (pte_fetch_ok pte_addr) then
      (Error (Walk_access_denied pte_addr), steps)
    else begin
      let steps = steps + 1 in
      match decode_pte (Phys_mem.read_u64 mem pte_addr) with
      | Error () -> (Error Invalid_mapping, steps)
      | Ok (ppn, perms, is_leaf) ->
          if is_leaf then begin
            (* Resolve superpage leaves to the containing 4 KiB frame. *)
            let span = 1 lsl (9 * level) in
            let frame = ppn + ((vaddr lsr 12) land (span - 1)) in
            (Ok (frame, perms), steps)
          end
          else if level = 0 then (Error Invalid_mapping, steps)
          else go ppn (level - 1) steps
    end
  in
  go root_ppn (levels - 1) 0

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
