(* The record-returning walk that [Sanctorum_hw.Page_table.walk]
   replaced: it decodes each PTE it fetches into a permissions record
   and returns the leaf, or the fault with the refused address, paired
   with the fetch count. The coded walk must agree with it on the
   frame, the permission bits, the step count and the fault kind. *)
module Pt = Sanctorum_hw.Page_table
module Phys_mem = Sanctorum_hw.Phys_mem

type fault = Invalid_mapping | Walk_access_denied of int

let vpn_index vaddr level = (vaddr lsr (12 + (9 * level))) land 511

let walk mem ~root_ppn ~vaddr ~pte_fetch_ok =
  let rec go table_ppn level steps =
    let pte_addr =
      Phys_mem.page_base table_ppn + (Pt.pte_size * vpn_index vaddr level)
    in
    (* A corrupted intermediate PTE can point the walk outside physical
       memory; real hardware reports that as an invalid translation,
       not a crash. *)
    if pte_addr < 0 || pte_addr + Pt.pte_size > Phys_mem.size mem then
      (Error Invalid_mapping, steps)
    else if not (pte_fetch_ok pte_addr) then
      (Error (Walk_access_denied pte_addr), steps)
    else begin
      let steps = steps + 1 in
      match Pt.decode_pte (Phys_mem.read_u64 mem pte_addr) with
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
  go root_ppn (Pt.levels - 1) 0
