(* The valid-bit cache the epoch-flushed [Sanctorum_hw.Cache] replaced:
   each line carries a valid bit, and [flush_all] clears every one of
   them. Same LRU fill and eviction rule (first invalid way, else the
   lowest-indexed least recently used one), the default set index or a
   given one, and no MRU probe — tags are unique within a set, so the
   probe order cannot change a hit. Trimmed to what the differential
   property drives. *)

type line = { mutable valid : bool; mutable tag : int; mutable lru : int }

type t = {
  cfg : Sanctorum_hw.Cache.config;
  index : int -> int;
  lines : line array array;
  mutable tick : int;
}

let create ?index (cfg : Sanctorum_hw.Cache.config) =
  {
    cfg;
    index =
      Option.value index ~default:(fun paddr -> paddr / cfg.line_bytes);
    lines =
      Array.init cfg.sets (fun _ ->
          Array.init cfg.ways (fun _ -> { valid = false; tag = 0; lru = 0 }));
    tick = 0;
  }

let set_of_paddr t paddr = t.index paddr land (t.cfg.sets - 1)
let tag_of t paddr = paddr / t.cfg.line_bytes

let find_line set tag = Array.find_opt (fun l -> l.valid && l.tag = tag) set

let access_hit t ~paddr =
  t.tick <- t.tick + 1;
  let set = t.lines.(set_of_paddr t paddr) and tag = tag_of t paddr in
  match find_line set tag with
  | Some l ->
      l.lru <- t.tick;
      true
  | None ->
      let victim =
        match Array.find_opt (fun l -> not l.valid) set with
        | Some l -> l
        | None ->
            Array.fold_left (fun v l -> if l.lru < v.lru then l else v) set.(0) set
      in
      victim.valid <- true;
      victim.tag <- tag;
      victim.lru <- t.tick;
      false

let probe t ~paddr =
  find_line t.lines.(set_of_paddr t paddr) (tag_of t paddr) <> None

let iter_lines t f =
  Array.iteri
    (fun set ways ->
      Array.iter
        (fun l ->
          if l.valid then f ~set ~paddr:(l.tag * t.cfg.line_bytes) ~lru:l.lru)
        ways)
    t.lines

let iter_tags t f = iter_lines t (fun ~set ~paddr ~lru:_ -> f ~set ~paddr)

let flush_all t =
  Array.iter (fun set -> Array.iter (fun l -> l.valid <- false) set) t.lines

let flush_set t i =
  Array.iter (fun l -> l.valid <- false) t.lines.(i land (t.cfg.sets - 1))
