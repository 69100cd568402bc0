(* The valid-bit TLB the epoch-flushed [Sanctorum_hw.Tlb] replaced: each
   entry carries a valid bit, and [flush] clears every one of them.
   Same round-robin fill, same in-place update of an existing mapping,
   same slot indices, and no MRU probe — a vpn sits in at most one
   valid slot, so the probe order cannot change a hit, and [probe]
   answers for [find] too. Trimmed to what the differential property
   drives. *)

type entry = {
  mutable valid : bool;
  mutable vpn : int;
  mutable ppn : int;
  mutable perms : int;
}

type t = {
  entries : entry array;
  mutable next : int;
}

let create ~entries =
  let entry _ = { valid = false; vpn = 0; ppn = 0; perms = 0 } in
  { entries = Array.init entries entry; next = 0 }

let rec slot_of entries vpn i =
  if i >= Array.length entries then -1
  else if entries.(i).valid && entries.(i).vpn = vpn then i
  else slot_of entries vpn (i + 1)

let probe t ~vpn = slot_of t.entries vpn 0

let insert t ~vpn ~ppn ~perms =
  let slot =
    match probe t ~vpn with
    | i when i >= 0 -> i
    | _ ->
        let s = t.next in
        t.next <- (s + 1) mod Array.length t.entries;
        s
  in
  let e = t.entries.(slot) in
  e.valid <- true;
  e.vpn <- vpn;
  e.ppn <- ppn;
  e.perms <- perms;
  slot

let flush t = Array.iter (fun e -> e.valid <- false) t.entries

let iter_entries t f =
  Array.iter
    (fun e -> if e.valid then f ~vpn:e.vpn ~ppn:e.ppn ~perms:e.perms)
    t.entries

let entry_count t =
  Array.fold_left (fun n e -> if e.valid then n + 1 else n) 0 t.entries
