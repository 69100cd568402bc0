module Hw = Sanctorum_hw

(* [ranges] caches the maximal same-owner runs of [owners] in ascending
   order; [None] means stale. [set_range] is the only mutator of
   [owners] and clears it, so a reader never sees a list that disagrees
   with the pages. A Keystone domain switch rebuilds its PMP layout from
   this list, so the switch costs O(ranges), not O(pages). *)
type t = {
  owners : int array;
  mutable ranges : (int * int * Hw.Trap.domain) list option;
}

let page = Hw.Phys_mem.page_size

(* [owner_at] sits on the per-fetch isolation check: a logical shift
   instead of a division (whose divisor the compiler cannot see across
   the module boundary) keeps it off the profile. *)
let page_shift = 12
let () = assert (page = 1 lsl page_shift)

let create mem ~initial_owner =
  { owners = Array.make (Hw.Phys_mem.size mem / page) initial_owner; ranges = None }

let owner_at t ~paddr =
  (* negative [paddr] shifts to a huge positive int, caught by the
     length check *)
  let p = paddr lsr page_shift in
  if p >= Array.length t.owners then
    invalid_arg "Owner_map.owner_at: address out of range";
  t.owners.(p)

let check_aligned lo hi =
  if lo mod page <> 0 || hi mod page <> 0 || lo > hi then
    invalid_arg "Owner_map: range must be page-aligned"

let set_range t ~lo ~hi domain =
  check_aligned lo hi;
  t.ranges <- None;
  for p = lo / page to (hi / page) - 1 do
    t.owners.(p) <- domain
  done

let range_owned_by t ~lo ~hi domain =
  check_aligned lo hi;
  let ok = ref (lo < hi) in
  for p = lo / page to (hi / page) - 1 do
    if t.owners.(p) <> domain then ok := false
  done;
  !ok

let pages t = Array.length t.owners

(* The annotation keeps the comparisons below on immediate ints rather
   than the polymorphic [compare]. *)
let scan (owners : Hw.Trap.domain array) =
  let n = Array.length owners in
  let acc = ref [] and lo = ref 0 in
  for p = 1 to n do
    if p = n || owners.(p) <> owners.(!lo) then begin
      acc := (!lo * page, p * page, owners.(!lo)) :: !acc;
      lo := p
    end
  done;
  List.rev !acc

let ranges t =
  match t.ranges with
  | Some r -> r
  | None ->
      let r = scan t.owners in
      t.ranges <- Some r;
      r

let iter_ranges t f = List.iter (fun (lo, hi, domain) -> f ~lo ~hi ~domain) (ranges t)

let domain_ranges t domain =
  List.filter_map
    (fun (lo, hi, d) -> if d = domain then Some (lo, hi) else None)
    (ranges t)
