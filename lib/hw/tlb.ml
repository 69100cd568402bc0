(* Entry [i] is [epochs.(i)], [vpns.(i)], [ppns.(i)] and [perms.(i)]:
   flat int arrays, so a lookup reads ints and a refill writes four,
   allocating nothing. An entry is valid only while its epoch is the
   TLB's [cur_epoch]: [flush] invalidates every entry with one
   increment, and a fresh entry's -1 equals no TLB epoch. *)
type t = {
  epochs : int array;
  vpns : int array;
  ppns : int array;
  perms : int array; (* the PTE's r/w/x/u bits, in place *)
  mutable next : int; (* round-robin fill pointer *)
  mutable mru : int; (* slot of the last hit or insert, probed first *)
  mutable cur_epoch : int;
  undo : int array;
      (* what the last [insert] replaced: its slot, that slot's epoch,
         vpn, ppn and perms, then the fill and MRU pointers *)
}

let create ~entries =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  {
    epochs = Array.make entries (-1);
    vpns = Array.make entries 0;
    ppns = Array.make entries 0;
    perms = Array.make entries 0;
    next = 0;
    mru = 0;
    cur_epoch = 0;
    undo = Array.make 7 0;
  }

let[@inline] holds t i vpn = t.epochs.(i) = t.cur_epoch && t.vpns.(i) = vpn

(* Early-exit scan. A vpn appears in at most one valid slot ([insert]
   reuses the existing mapping's slot), so the first match is the only
   match. Returns the slot index, or -1. *)
let rec scan t vpn i n =
  if i >= n then -1 else if holds t i vpn then i else scan t vpn (i + 1) n

(* Probe the MRU slot first, then scan; no mutation, so a side exit of
   the superblock tier that replays the access on the stepped path
   observes an untouched TLB. *)
let probe t ~vpn =
  if holds t t.mru vpn then t.mru else scan t vpn 0 (Array.length t.epochs)

let commit_hit t i = t.mru <- i

let find t ~vpn =
  let i = probe t ~vpn in
  if i >= 0 then commit_hit t i;
  i

let slot_ppn t i = t.ppns.(i)
let slot_perms t i = t.perms.(i)

let insert t ~vpn ~ppn ~perms =
  let n = Array.length t.epochs in
  (* Reuse an existing mapping slot when present, else round-robin. *)
  let found = scan t vpn 0 n in
  let slot = if found >= 0 then found else t.next in
  let u = t.undo in
  u.(0) <- slot;
  u.(1) <- t.epochs.(slot);
  u.(2) <- t.vpns.(slot);
  u.(3) <- t.ppns.(slot);
  u.(4) <- t.perms.(slot);
  u.(5) <- t.next;
  u.(6) <- t.mru;
  if found < 0 then t.next <- (slot + 1) mod n;
  t.epochs.(slot) <- t.cur_epoch;
  t.vpns.(slot) <- vpn;
  t.ppns.(slot) <- ppn;
  t.perms.(slot) <- perms;
  t.mru <- slot;
  slot

let undo_insert t =
  let u = t.undo in
  let slot = u.(0) in
  t.epochs.(slot) <- u.(1);
  t.vpns.(slot) <- u.(2);
  t.ppns.(slot) <- u.(3);
  t.perms.(slot) <- u.(4);
  t.next <- u.(5);
  t.mru <- u.(6)

let flush t = t.cur_epoch <- t.cur_epoch + 1

let iter_entries t f =
  for i = 0 to Array.length t.epochs - 1 do
    if t.epochs.(i) = t.cur_epoch then
      f ~vpn:t.vpns.(i) ~ppn:t.ppns.(i) ~perms:t.perms.(i)
  done

let entry_count t =
  let n = ref 0 in
  Array.iter (fun e -> if e = t.cur_epoch then incr n) t.epochs;
  !n
