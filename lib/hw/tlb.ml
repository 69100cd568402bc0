type perms = { r : bool; w : bool; x : bool; u : bool }

(* An entry is valid only while its [epoch] is the TLB's [cur_epoch]:
   [flush] invalidates every entry with one increment, and a fresh
   entry's -1 equals no TLB epoch. *)
type entry = {
  mutable epoch : int;
  mutable vpn : int;
  mutable ppn : int;
  mutable perms : perms;
}

type t = {
  entries : entry array;
  mutable next : int;  (* round-robin fill pointer *)
  mutable mru : int;  (* slot of the last hit or insert, probed first *)
  mutable cur_epoch : int;
}

let no_perms = { r = false; w = false; x = false; u = false }

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    entries =
      Array.init entries (fun _ ->
          { epoch = -1; vpn = 0; ppn = 0; perms = no_perms });
    next = 0;
    mru = 0;
    cur_epoch = 0;
  }

(* Early-exit scan. A vpn appears in at most one valid slot ([insert]
   reuses the existing mapping's slot), so the first match is the only
   match. Returns the slot index, or -1. *)
let rec scan entries epoch vpn i n =
  if i >= n then -1
  else
    let e = entries.(i) in
    if e.epoch = epoch && e.vpn = vpn then i
    else scan entries epoch vpn (i + 1) n

(* Probe the MRU slot first, then scan; no mutation, so a side exit of
   the superblock tier that replays the access on the stepped path
   observes an untouched TLB. *)
let probe t ~vpn =
  let m = t.entries.(t.mru) in
  if m.epoch = t.cur_epoch && m.vpn = vpn then t.mru
  else scan t.entries t.cur_epoch vpn 0 (Array.length t.entries)

let commit_hit t i = t.mru <- i

let find t ~vpn =
  let i = probe t ~vpn in
  if i >= 0 then commit_hit t i;
  i

let slot_ppn t i = t.entries.(i).ppn
let slot_perms t i = t.entries.(i).perms

let insert t ~vpn ~ppn ~perms =
  let n = Array.length t.entries in
  (* Reuse an existing mapping slot when present, else round-robin. *)
  let slot =
    match scan t.entries t.cur_epoch vpn 0 n with
    | i when i >= 0 -> i
    | _ ->
        let s = t.next in
        t.next <- (s + 1) mod n;
        s
  in
  let e = t.entries.(slot) in
  e.epoch <- t.cur_epoch;
  e.vpn <- vpn;
  e.ppn <- ppn;
  e.perms <- perms;
  t.mru <- slot

let flush t = t.cur_epoch <- t.cur_epoch + 1

let iter_entries t f =
  Array.iter
    (fun e ->
      if e.epoch = t.cur_epoch then f ~vpn:e.vpn ~ppn:e.ppn ~perms:e.perms)
    t.entries

let entry_count t =
  let live n e = if e.epoch = t.cur_epoch then n + 1 else n in
  Array.fold_left live 0 t.entries
