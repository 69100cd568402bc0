(* A line is valid only while its [epoch] is the cache's [cur_epoch]:
   [flush_all] invalidates every line with one increment, and
   [flush_range] sets a line's epoch to -1, which no cache epoch
   equals. *)
type line = { mutable epoch : int; mutable tag : int; mutable lru : int }

type config = {
  sets : int;
  ways : int;
  line_bytes : int;
  hit_cycles : int;
  miss_cycles : int;
}

type t = {
  cfg : config;
  line_shift : int; (* log2 line_bytes: tag/index without division *)
  set_mask : int; (* sets - 1 *)
  lines : line array array; (* [set].[way] *)
  mru : int array; (* per set: way of the last hit or fill, probed first *)
  mutable index_fn : int -> int;
  mutable default_index : bool; (* skip the closure call until overridden *)
  mutable cur_epoch : int; (* see [line] *)
  mutable tick : int;
  mutable lowest_fill : int; (* see [lowest_fill] *)
}

let default_l1 =
  { sets = 64; ways = 4; line_bytes = 64; hit_cycles = 1; miss_cycles = 10 }

let default_l2 =
  { sets = 1024; ways = 8; line_bytes = 64; hit_cycles = 10; miss_cycles = 60 }

let create cfg =
  if not (Sanctorum_util.Bits.is_power_of_two cfg.sets) then
    invalid_arg "Cache.create: sets must be a power of two";
  if not (Sanctorum_util.Bits.is_power_of_two cfg.line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  let mk_line () = { epoch = -1; tag = 0; lru = 0 } in
  let lines =
    Array.init cfg.sets (fun _ -> Array.init cfg.ways (fun _ -> mk_line ()))
  in
  let line_shift = Sanctorum_util.Bits.log2 cfg.line_bytes in
  let default_index paddr = (paddr lsr line_shift) land (cfg.sets - 1) in
  {
    cfg;
    line_shift;
    set_mask = cfg.sets - 1;
    lines;
    mru = Array.make cfg.sets 0;
    index_fn = default_index;
    default_index = true;
    cur_epoch = 0;
    tick = 0;
    lowest_fill = max_int;
  }

let config t = t.cfg

let set_index_fn t f =
  t.index_fn <- f;
  t.default_index <- false
let set_of_paddr t paddr = t.index_fn paddr
let tag_of t paddr = paddr lsr t.line_shift

(* Early-exit scans. Tags are unique within a set (a fill only happens
   after a whole-set miss), so the first match is the only match. *)
let rec scan_tag set epoch tag w n =
  if w >= n then -1
  else
    let l = set.(w) in
    if l.epoch = epoch && l.tag = tag then w
    else scan_tag set epoch tag (w + 1) n

let rec first_invalid set epoch w n =
  if w >= n then -1
  else if set.(w).epoch <> epoch then w
  else first_invalid set epoch (w + 1) n

(* Strict [<] keeps the lowest-indexed way among LRU ties — the same
   way the original whole-set fold picked. *)
let rec min_lru set best w n =
  if w >= n then best
  else min_lru set (if set.(w).lru < set.(best).lru then w else best) (w + 1) n

let access_hit t ~paddr =
  t.tick <- t.tick + 1;
  let si =
    if t.default_index then (paddr lsr t.line_shift) land t.set_mask
    else t.index_fn paddr land t.set_mask
  in
  (* [si] is masked to [0, sets) and stored MRU ways are always valid
     way indices, so the unchecked reads cannot go out of bounds. *)
  let set = Array.unsafe_get t.lines si in
  let tag = paddr lsr t.line_shift in
  let ways = Array.length set in
  let epoch = t.cur_epoch in
  let hit_way =
    let mw = Array.unsafe_get t.mru si in
    let m = Array.unsafe_get set mw in
    if m.epoch = epoch && m.tag = tag then mw else scan_tag set epoch tag 0 ways
  in
  if hit_way >= 0 then begin
    let l = Array.unsafe_get set hit_way in
    l.lru <- t.tick;
    Array.unsafe_set t.mru si hit_way;
    true
  end
  else begin
    (* Fill: prefer the first invalid way, else evict the LRU way. *)
    let vw =
      match first_invalid set epoch 0 ways with
      | w when w >= 0 -> w
      | _ -> min_lru set 0 1 ways
    in
    let l = set.(vw) in
    l.epoch <- epoch;
    l.tag <- tag;
    l.lru <- t.tick;
    t.mru.(si) <- vw;
    let base = tag lsl t.line_shift in
    if base < t.lowest_fill then t.lowest_fill <- base;
    false
  end

(* Account [n] further hits on the line of [paddr], which must have
   been the target of the immediately preceding access on this cache
   with nothing touched in between — the superblock tier batches
   consecutive same-line instruction fetches and flushes them here.
   Each repeat of [access_hit] would advance the tick and stamp the
   line with it; only the final stamp is observable when no other
   access intervenes, so one batched update leaves tick and LRU order
   bit-identical to [n] sequential calls. *)
let note_repeat_hits t ~paddr ~n =
  if n > 0 then begin
    let si =
      if t.default_index then (paddr lsr t.line_shift) land t.set_mask
      else t.index_fn paddr land t.set_mask
    in
    let set = t.lines.(si) in
    let l = set.(t.mru.(si)) in
    (* the precondition makes the batched line this set's MRU way *)
    assert (l.epoch = t.cur_epoch && l.tag = paddr lsr t.line_shift);
    t.tick <- t.tick + n;
    l.lru <- t.tick
  end

let probe t ~paddr =
  let set = t.lines.(t.index_fn paddr land (t.cfg.sets - 1)) in
  let tag = tag_of t paddr in
  Array.exists (fun l -> l.epoch = t.cur_epoch && l.tag = tag) set

let iter_tags t f =
  for set = 0 to Array.length t.lines - 1 do
    let ways = t.lines.(set) in
    for w = 0 to Array.length ways - 1 do
      let l = ways.(w) in
      if l.epoch = t.cur_epoch then f ~set ~paddr:(l.tag * t.cfg.line_bytes)
    done
  done

let lowest_fill t = t.lowest_fill
let flush_all t = t.cur_epoch <- t.cur_epoch + 1

let clear_set set =
  for w = 0 to Array.length set - 1 do
    set.(w).epoch <- -1
  done

(* Under the default index consecutive lines take consecutive sets, so
   the first [sets] lines of the range already cover every set it
   reaches. *)
let flush_range t ~lo ~hi =
  if lo < hi then begin
    let first = lo lsr t.line_shift and last = (hi - 1) lsr t.line_shift in
    if t.default_index then
      for line = first to min last (first + t.set_mask) do
        clear_set t.lines.(line land t.set_mask)
      done
    else
      for line = first to last do
        clear_set t.lines.(t.index_fn (line lsl t.line_shift) land t.set_mask)
      done
  end
