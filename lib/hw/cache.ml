(* Line [set * ways + way] keeps its epoch, tag and LRU stamp in three
   flat int arrays, so a lookup reads ints at one computed index and
   [create] allocates three arrays, not a record per line. A line is
   valid only while its epoch is the cache's [cur_epoch]: [flush_all]
   invalidates every line with one increment, and [flush_range] sets a
   line's epoch to -1, which no cache epoch equals. *)

type config = {
  sets : int;
  ways : int;
  line_bytes : int;
  hit_cycles : int;
  miss_cycles : int;
}

type t = {
  cfg : config;
  ways : int;
  line_shift : int; (* log2 line_bytes: tag/index without division *)
  set_mask : int; (* sets - 1 *)
  epochs : int array; (* [set * ways + way], see above *)
  tags : int array;
  lrus : int array;
  mru : int array; (* per set: way of the last hit or fill, probed first *)
  mutable index_fn : int -> int;
  mutable default_index : bool; (* skip the closure call until overridden *)
  mutable cur_epoch : int;
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
  let lines = cfg.sets * cfg.ways in
  let line_shift = Sanctorum_util.Bits.log2 cfg.line_bytes in
  let default_index paddr = (paddr lsr line_shift) land (cfg.sets - 1) in
  {
    cfg;
    ways = cfg.ways;
    line_shift;
    set_mask = cfg.sets - 1;
    epochs = Array.make lines (-1);
    tags = Array.make lines 0;
    lrus = Array.make lines 0;
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

let[@inline] set_of t paddr =
  if t.default_index then (paddr lsr t.line_shift) land t.set_mask
  else t.index_fn paddr land t.set_mask

(* Callers pass [i] inside the arrays: a line of a masked set. *)
let[@inline] holds t i epoch tag =
  Array.unsafe_get t.epochs i = epoch && Array.unsafe_get t.tags i = tag

(* Early-exit scan over lines [i, n). Tags are unique within a set (a
   fill only happens after a whole-set miss), so the first match is the
   only match. *)
let rec scan_tag t epoch tag i n =
  if i >= n then -1
  else if holds t i epoch tag then i
  else scan_tag t epoch tag (i + 1) n

(* The fill victim among lines [i, n): the lowest stamp wins, with an
   invalid line counting below every stamp, and strict [<] keeps the
   lowest-indexed line among ties. So the first invalid way fills
   before any valid one is evicted, and with none the lowest-indexed
   least recently used way goes. *)
let rec victim t epoch best key i n =
  if i >= n then best
  else
    let k =
      if Array.unsafe_get t.epochs i <> epoch then -1
      else Array.unsafe_get t.lrus i
    in
    if k < key then victim t epoch i k (i + 1) n
    else victim t epoch best key (i + 1) n

let access_hit t ~paddr =
  t.tick <- t.tick + 1;
  let si = set_of t paddr in
  (* [si] is masked to [0, sets) and stored MRU ways are always valid
     way indices, so the unchecked reads cannot go out of bounds. *)
  let base = si * t.ways in
  let tag = paddr lsr t.line_shift in
  let epoch = t.cur_epoch in
  let hit =
    let m = base + Array.unsafe_get t.mru si in
    if holds t m epoch tag then m else scan_tag t epoch tag base (base + t.ways)
  in
  if hit >= 0 then begin
    Array.unsafe_set t.lrus hit t.tick;
    Array.unsafe_set t.mru si (hit - base);
    true
  end
  else begin
    let v = victim t epoch base max_int base (base + t.ways) in
    Array.unsafe_set t.epochs v epoch;
    Array.unsafe_set t.tags v tag;
    Array.unsafe_set t.lrus v t.tick;
    Array.unsafe_set t.mru si (v - base);
    let line = tag lsl t.line_shift in
    if line < t.lowest_fill then t.lowest_fill <- line;
    false
  end

(* Account [n] further hits on the line of [paddr], which must be
   valid. [n] sequential [access_hit] calls would advance the tick by
   [n], stamp the line with the last tick and make it its set's MRU way;
   only that last stamp is observable, so one update leaves the same
   tick, stamps and MRU ways. The superblock tier defers the L1 hits on
   its two open lines and applies each line's here, in the order of its
   last deferred hit. *)
let note_repeat_hits t ~paddr ~n =
  if n > 0 then begin
    let si = set_of t paddr in
    let base = si * t.ways in
    let i =
      scan_tag t t.cur_epoch (paddr lsr t.line_shift) base (base + t.ways)
    in
    assert (i >= 0);
    t.tick <- t.tick + n;
    t.lrus.(i) <- t.tick;
    t.mru.(si) <- i - base
  end

let probe t ~paddr =
  let base = (t.index_fn paddr land t.set_mask) * t.ways in
  scan_tag t t.cur_epoch (tag_of t paddr) base (base + t.ways) >= 0

let iter_lines t f =
  for i = 0 to Array.length t.epochs - 1 do
    if t.epochs.(i) = t.cur_epoch then
      let paddr = t.tags.(i) * t.cfg.line_bytes in
      f ~set:(i / t.ways) ~paddr ~lru:t.lrus.(i)
  done

let iter_tags t f = iter_lines t (fun ~set ~paddr ~lru:_ -> f ~set ~paddr)
let tick t = t.tick
let lowest_fill t = t.lowest_fill
let flush_all t = t.cur_epoch <- t.cur_epoch + 1
let clear_set t si = Array.fill t.epochs (si * t.ways) t.ways (-1)

(* Under the default index consecutive lines take consecutive sets, so
   the first [sets] lines of the range already cover every set it
   reaches. *)
let flush_range t ~lo ~hi =
  if lo < hi then begin
    let first = lo lsr t.line_shift and last = (hi - 1) lsr t.line_shift in
    if t.default_index then
      for line = first to min last (first + t.set_mask) do
        clear_set t (line land t.set_mask)
      done
    else
      for line = first to last do
        clear_set t (t.index_fn (line lsl t.line_shift) land t.set_mask)
      done
  end
