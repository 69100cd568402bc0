(* The flat physical memory [Sanctorum_hw.Phys_mem] replaced: one
   zero-filled [Bytes] for the whole memory, allocated at [create].
   Same operations, same ECC fault model, same write-hook reports and
   per-page generations; the property "phys_mem: frames on first write
   = flat reference" holds the frame-by-frame memory to it.

   [data] holds the stored (possibly corrupted) bytes; [faults] maps a
   word index (paddr / 8) to the XOR mask of bits currently flipped in
   that word, so the pristine value is always recoverable for the
   single-bit (correctable) case. [pending] counts live faulted words:
   the architectural access paths only pay for ECC when it is nonzero,
   keeping the fault-free fast path at a single integer compare.
   [gens] counts the mutations of each page, so a reader that derived
   something from a page can tell whether its bytes may have moved. *)

type t = {
  data : Bytes.t;
  gens : int array;
  faults : (int, int64) Hashtbl.t;
  mutable pending : int;
  mutable corrected : int;
  mutable uncorrectable : int;
  mutable write_hook : (pos:int -> len:int -> unit) option;
}

let page_shift = 12
let page_size = 1 lsl page_shift

let create ~size =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4096";
  {
    data = Bytes.make size '\000';
    gens = Array.make (size / page_size) 0;
    faults = Hashtbl.create 8;
    pending = 0;
    corrected = 0;
    uncorrectable = 0;
    write_hook = None;
  }

let set_write_hook t h = t.write_hook <- h

(* Every mutation of the stored bytes — architectural stores, DMA,
   zeroing, fault injection, ECC scrub corrections — reports the dirty
   range here: it moves the generation of each page the range touches,
   and the hook lets a layer caching derived views of memory (the
   machine's compiled superblock pages) invalidate. Callers pass
   [len > 0] and an in-range [pos]. *)
let notify t pos len =
  for p = pos lsr page_shift to (pos + len - 1) lsr page_shift do
    Array.unsafe_set t.gens p (Array.unsafe_get t.gens p + 1)
  done;
  match t.write_hook with None -> () | Some f -> f ~pos ~len

let generation t ppn = t.gens.(ppn)
let size t = Bytes.length t.data

let check t pos len label =
  if pos < 0 || pos + len > Bytes.length t.data then
    invalid_arg
      (Printf.sprintf "Phys_mem.%s: address 0x%x out of range" label pos)

(* A store rewrites the whole word's check bits, so any fault pending
   on an overwritten word is absorbed: restore the pristine value (the
   mask records exactly which bits are flipped), drop the mask, then
   let the store land. Without this a later architectural scrub would
   XOR a stale mask into freshly written data — silent corruption the
   real memory controller cannot produce. *)
let absorb_faults t pos len =
  if t.pending > 0 then begin
    let first = pos / 8 and last = (pos + len - 1) / 8 in
    for w = first to last do
      match Hashtbl.find_opt t.faults w with
      | None -> ()
      | Some mask ->
          let base = w * 8 in
          if base + 8 <= Bytes.length t.data then begin
            let stored = Bytes.get_int64_le t.data base in
            Bytes.set_int64_le t.data base (Int64.logxor stored mask);
            notify t base 8
          end;
          Hashtbl.remove t.faults w;
          t.pending <- t.pending - 1
    done
  end

let read_u8 t pos =
  check t pos 1 "read_u8";
  Char.code (Bytes.get t.data pos)

let write_u8 t pos v =
  check t pos 1 "write_u8";
  absorb_faults t pos 1;
  Bytes.set t.data pos (Char.chr (v land 0xff));
  notify t pos 1

let read_u16 t pos =
  check t pos 2 "read_u16";
  Bytes.get_uint16_le t.data pos

let write_u16 t pos v =
  check t pos 2 "write_u16";
  absorb_faults t pos 2;
  Bytes.set_uint16_le t.data pos (v land 0xffff);
  notify t pos 2

let read_u32 t pos =
  check t pos 4 "read_u32";
  Bytes.get_int32_le t.data pos

let write_u32 t pos v =
  check t pos 4 "write_u32";
  absorb_faults t pos 4;
  Bytes.set_int32_le t.data pos v;
  notify t pos 4

let read_u64 t pos =
  check t pos 8 "read_u64";
  Bytes.get_int64_le t.data pos

let write_u64 t pos v =
  check t pos 8 "write_u64";
  absorb_faults t pos 8;
  Bytes.set_int64_le t.data pos v;
  notify t pos 8

(* Unchecked and native-endian: [iter_nonzero_words] checks its whole
   range once up front, and byte order cannot change whether a word is
   zero. *)
external unsafe_get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* A page-table frame is almost all zeros, so a reader that decodes
   every slot through [read_u64] spends nearly all its time on empty
   entries. This loop ORs four words per step and looks at them one by
   one only when the group is non-zero, and one by one for the tail. *)
let iter_nonzero_words t ~pos ~len f =
  check t pos len "iter_nonzero_words";
  if pos land 7 <> 0 || len land 7 <> 0 then
    invalid_arg "Phys_mem.iter_nonzero_words: unaligned range";
  let d = t.data and stop = pos + len in
  let rec words p last =
    if p < last then begin
      if unsafe_get_word d p <> 0L then f p (Bytes.get_int64_le d p);
      words (p + 8) last
    end
  in
  let rec groups p =
    if p + 32 > stop then words p stop
    else begin
      let q = p + 16 in
      let x = Int64.logor (unsafe_get_word d p) (unsafe_get_word d (p + 8)) in
      let y = Int64.logor (unsafe_get_word d q) (unsafe_get_word d (q + 8)) in
      if Int64.logor x y <> 0L then words p (p + 32);
      groups (p + 32)
    end
  in
  groups pos

let read_string t ~pos ~len =
  check t pos len "read_string";
  Bytes.sub_string t.data pos len

let write_string t ~pos s =
  check t pos (String.length s) "write_string";
  if String.length s > 0 then begin
    absorb_faults t pos (String.length s);
    Bytes.blit_string s 0 t.data pos (String.length s);
    notify t pos (String.length s)
  end

let zero_range t ~pos ~len =
  check t pos len "zero_range";
  Bytes.fill t.data pos len '\000';
  if len > 0 then notify t pos len;
  if t.pending > 0 then begin
    (* zeroing rewrites the whole word, which rewrites the check bits *)
    let first = pos / 8 and last = (pos + len - 1) / 8 in
    for w = first to last do
      if Hashtbl.mem t.faults w then begin
        Hashtbl.remove t.faults w;
        t.pending <- t.pending - 1
      end
    done
  end

let page_of paddr = paddr / page_size
let page_base ppn = ppn * page_size

(* ---- ECC model ------------------------------------------------------ *)

let word_of pos = pos / 8
let word_base w = w * 8

let inject_bit_flip t ~paddr ~bit =
  check t paddr 1 "inject_bit_flip";
  if bit < 0 || bit > 63 then invalid_arg "Phys_mem.inject_bit_flip: bit";
  let w = word_of paddr in
  let base = word_base w in
  if base + 8 > Bytes.length t.data then
    (* the final partial word is not ECC-protected in this model *)
    ()
  else begin
    let mask = Int64.shift_left 1L bit in
    let stored = Bytes.get_int64_le t.data base in
    Bytes.set_int64_le t.data base (Int64.logxor stored mask);
    notify t base 8;
    let prev = Option.value (Hashtbl.find_opt t.faults w) ~default:0L in
    if prev = 0L then t.pending <- t.pending + 1;
    let now = Int64.logxor prev mask in
    if now = 0L then begin
      (* flipping the same bit twice restores the word *)
      Hashtbl.remove t.faults w;
      t.pending <- t.pending - 1
    end
    else Hashtbl.replace t.faults w now
  end

let popcount64 x =
  let n = ref 0 and v = ref x in
  while !v <> 0L do
    v := Int64.logand !v (Int64.sub !v 1L);
    incr n
  done;
  !n

(* Scrub the words overlapping [pos, pos+len): correct single-bit
   faults in place, report the first uncorrectable (>= 2 flipped bits)
   word. Called by the machine layer on every architectural access;
   the [pending = 0] early exit keeps that free in the common case. *)
let scrub t ~pos ~len =
  if t.pending = 0 then `Clean
  else begin
    check t pos len "scrub";
    let first = word_of pos and last = word_of (pos + len - 1) in
    let corrected = ref 0 in
    let bad = ref None in
    let w = ref first in
    while !bad = None && !w <= last do
      (match Hashtbl.find_opt t.faults !w with
      | None -> ()
      | Some mask ->
          if popcount64 mask = 1 then begin
            let base = word_base !w in
            let stored = Bytes.get_int64_le t.data base in
            Bytes.set_int64_le t.data base (Int64.logxor stored mask);
            notify t base 8;
            Hashtbl.remove t.faults !w;
            t.pending <- t.pending - 1;
            t.corrected <- t.corrected + 1;
            incr corrected
          end
          else begin
            t.uncorrectable <- t.uncorrectable + 1;
            bad := Some (word_base !w)
          end);
      incr w
    done;
    match !bad with
    | Some paddr -> `Uncorrectable paddr
    | None -> if !corrected > 0 then `Corrected !corrected else `Clean
  end

let pending_faults t = t.pending
let corrected_count t = t.corrected
let uncorrectable_count t = t.uncorrectable
