type privilege = U | S | M

(* Entry [i] covers [lo.(i), hi.(i)) under [flags.(i)]: flat int
   arrays, so a check reads ints and [load] copies them. A cleared
   entry's flags are 0, and its bounds decide nothing. *)
type t = { lo : int array; hi : int array; flags : int array }

let r_bit = 1
let w_bit = 2
let x_bit = 4
let locked_bit = 8
let active_bit = 16
let entry_count = 16

let create ?(entries = entry_count) () =
  if entries < 1 then invalid_arg "Pmp.create: entries must be >= 1";
  {
    lo = Array.make entries 0;
    hi = Array.make entries 0;
    flags = Array.make entries 0;
  }

let count t = Array.length t.flags
let bit b v = if b then v else 0

let flags ~r ~w ~x ~locked =
  active_bit lor bit r r_bit lor bit w w_bit lor bit x x_bit
  lor bit locked locked_bit

let writable t index what =
  if index < 0 || index >= Array.length t.flags then
    invalid_arg ("Pmp." ^ what ^ ": index out of range");
  if t.flags.(index) land locked_bit <> 0 then
    invalid_arg ("Pmp." ^ what ^ ": entry is locked")

let set_entry t ~index ~lo ~hi ~r ~w ~x ~locked =
  writable t index "set_entry";
  if lo < 0 || hi < lo then invalid_arg "Pmp.set_entry: bad range";
  t.lo.(index) <- lo;
  t.hi.(index) <- hi;
  t.flags.(index) <- flags ~r ~w ~x ~locked

let clear_entry t ~index =
  writable t index "clear_entry";
  t.flags.(index) <- 0

(* The locks are checked before any entry is written, so a refused
   load leaves the PMP as it was, and the copy then needs no bounds
   check. The copy is a loop, not [Array.blit]: on OCaml 5 a blit into
   a non-float array pays the write barrier for each element. *)
let load t ~first ~lo ~hi ~flags =
  let n = Array.length flags in
  if
    first < 0
    || first + n > Array.length t.flags
    || Array.length lo <> n
    || Array.length hi <> n
  then invalid_arg "Pmp.load: entries out of range";
  for i = first to first + n - 1 do
    if Array.unsafe_get t.flags i land locked_bit <> 0 then
      invalid_arg "Pmp.load: entry is locked"
  done;
  for i = 0 to n - 1 do
    Array.unsafe_set t.lo (first + i) (Array.unsafe_get lo i);
    Array.unsafe_set t.hi (first + i) (Array.unsafe_get hi i);
    Array.unsafe_set t.flags (first + i) (Array.unsafe_get flags i)
  done

let entry t i =
  let f = t.flags.(i) in
  if f = 0 then None
  else
    let set b = f land b <> 0 in
    Some (t.lo.(i), t.hi.(i), set r_bit, set w_bit, set x_bit, set locked_bit)

let access_bit = function
  | Trap.Read -> r_bit
  | Trap.Write -> w_bit
  | Trap.Execute -> x_bit

(* The first active entry covering [paddr], or -1. The three arrays
   share their length, [n]. *)
let rec first_match t paddr i n =
  if i >= n then -1
  else if
    paddr < Array.unsafe_get t.hi i
    && paddr >= Array.unsafe_get t.lo i
    && Array.unsafe_get t.flags i <> 0
  then i
  else first_match t paddr (i + 1) n

let check t ~privilege ~access ~paddr =
  let i = first_match t paddr 0 (Array.length t.flags) in
  if i < 0 then privilege = M
  else
    let f = t.flags.(i) in
    (privilege = M && f land locked_bit = 0) || f land access_bit access <> 0

let check_range t ~privilege ~access ~lo ~hi =
  (* Split the range at entry boundaries; each fragment is decided by
     its first matching entry, so checking one representative address
     per fragment is exact. *)
  let cuts = ref [ lo; hi ] in
  for i = 0 to Array.length t.flags - 1 do
    if t.flags.(i) <> 0 then begin
      let elo = t.lo.(i) and ehi = t.hi.(i) in
      if elo > lo && elo < hi then cuts := elo :: !cuts;
      if ehi > lo && ehi < hi then cuts := ehi :: !cuts
    end
  done;
  let points = List.sort_uniq Stdlib.compare !cuts in
  let rec fragments = function
    | a :: (b :: _ as rest) ->
        check t ~privilege ~access ~paddr:a && a < b && fragments rest
    | [ _ ] | [] -> true
  in
  lo < hi && fragments points
