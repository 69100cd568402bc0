module Hw = Sanctorum_hw

(* [ranges] holds the maximal same-owner runs of [owners] in ascending
   order. [set_range], the only mutator, splices it in the same step and
   bumps [version] exactly when some page changes owner. A Keystone
   domain switch builds its PMP layout from this list, so the switch
   costs O(ranges), not O(pages). *)
type t = {
  owners : int array;
  mutable ranges : (int * int * Hw.Trap.domain) list;
  mutable version : int;
}

let page = Hw.Phys_mem.page_size

(* [owner_at] sits on the per-fetch isolation check: a logical shift
   instead of a division (whose divisor the compiler cannot see across
   the module boundary) keeps it off the profile. *)
let page_shift = 12
let () = assert (page = 1 lsl page_shift)

let create mem ~initial_owner =
  let bytes = Hw.Phys_mem.size mem in
  let owners = Array.make (bytes / page) initial_owner in
  { owners; ranges = [ (0, bytes, initial_owner) ]; version = 0 }

let owner_at t ~paddr =
  (* negative [paddr] shifts to a huge positive int, caught by the
     length check *)
  let p = paddr lsr page_shift in
  if p >= Array.length t.owners then
    invalid_arg "Owner_map.owner_at: address out of range";
  t.owners.(p)

let check_range t lo hi =
  if lo mod page <> 0 || hi mod page <> 0 || lo < 0 || lo > hi
     || hi > Array.length t.owners * page
  then invalid_arg "Owner_map: range must be page-aligned and inside the map"

(* [ranges] with [lo, hi) given to [d] (an int, so no polymorphic
   compare): earlier runs copied, later ones shared, equal neighbours
   merged. *)
let splice ranges ~lo ~hi (d : Hw.Trap.domain) =
  let rec right start = function
    | (_, rhi, _) :: rest when rhi <= hi -> right start rest
    | (_, rhi, rd) :: rest when rd = d -> (start, rhi, d) :: rest
    | (_, rhi, rd) :: rest -> (start, hi, d) :: (hi, rhi, rd) :: rest
    | [] -> [ (start, hi, d) ]
  in
  let rec left = function
    | ((_, rhi, _) as r) :: rest when rhi < lo -> r :: left rest
    | (rlo, _, rd) :: _ as rs when rd = d -> right rlo rs
    | (rlo, _, rd) :: _ as rs when rlo < lo -> (rlo, lo, rd) :: right lo rs
    | rs -> right lo rs
  in
  left ranges

let range_owned_by t ~lo ~hi domain =
  check_range t lo hi;
  let rec owned p = p = hi / page || (t.owners.(p) = domain && owned (p + 1)) in
  lo < hi && owned (lo / page)

let set_range t ~lo ~hi domain =
  if (not (range_owned_by t ~lo ~hi domain)) && lo < hi then begin
    Array.fill t.owners (lo / page) ((hi - lo) / page) domain;
    t.ranges <- splice t.ranges ~lo ~hi domain;
    t.version <- t.version + 1
  end

let version t = t.version

let iter_ranges t f =
  List.iter (fun (lo, hi, domain) -> f ~lo ~hi ~domain) t.ranges

let domain_ranges t domain =
  List.filter_map
    (fun (lo, hi, d) -> if d = domain then Some (lo, hi) else None)
    t.ranges
