(* Physical memory, one 4 KiB frame at a time, with a word-granular ECC
   fault model.

   [frames.(p)] holds page [p]'s stored (possibly corrupted) bytes.
   Every page starts on [zero_frame], one buffer that every memory
   shares and nothing writes, and gets its own buffer on its first
   write: the monitor hands DRAM out one allocation unit at a time and
   a run writes a few hundred of a machine's 4,096 frames, so the host
   pays for those and not for a zero-filled 16 MiB block at boot. A
   frame keeps its buffer when zeroed. Fleet shards read [zero_frame]
   from parallel domains, which is safe because no path writes it:
   every mutation takes its frame from [writable].

   [faults] maps a word index (paddr / 8) to the XOR mask of bits
   currently flipped in that word, so the pristine value is always
   recoverable for the single-bit (correctable) case. [pending] counts
   live faulted words: the architectural access paths only pay for ECC
   when it is nonzero, keeping the fault-free fast path at a single
   integer compare. [gens] counts the mutations of each page, 32 bits a
   page, so a reader that derived something from a page can tell
   whether its bytes may have moved. *)

type t = {
  frames : Bytes.t array;
  size : int;
  gens : Bytes.t;
  faults : (int, int64) Hashtbl.t;
  mutable pending : int;
  mutable corrected : int;
  mutable uncorrectable : int;
  mutable write_hook : (pos:int -> len:int -> unit) option;
}

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1
let zero_frame = Bytes.make page_size '\000'

(* In-frame accessors without a bounds check: every caller has checked
   the range against the memory and that the access stays inside one
   frame. The primitives are native-endian; stored words are
   little-endian, as [Bytes.get_int64_le] reads them. *)
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

let get16 b i = if big_endian () then swap16 (get16u b i) else get16u b i
let get32 b i = if big_endian () then swap32 (get32u b i) else get32u b i
let get64 b i = if big_endian () then swap64 (get64u b i) else get64u b i
let set16 b i v = set16u b i (if big_endian () then swap16 v else v)
let set32 b i v = set32u b i (if big_endian () then swap32 v else v)
let set64 b i v = set64u b i (if big_endian () then swap64 v else v)

let create ~size =
  if size <= 0 || size mod page_size <> 0 then
    invalid_arg "Phys_mem.create: size must be a positive multiple of 4096";
  let pages = size / page_size in
  {
    frames = Array.make pages zero_frame;
    size;
    gens = Bytes.make (4 * pages) '\000';
    faults = Hashtbl.create 8;
    pending = 0;
    corrected = 0;
    uncorrectable = 0;
    write_hook = None;
  }

let set_write_hook t h = t.write_hook <- h
let frame t pos = Array.unsafe_get t.frames (pos lsr page_shift)

let materialize t p =
  let f = Bytes.make page_size '\000' in
  Array.unsafe_set t.frames p f;
  f

(* The buffer of the frame holding [pos], made on the frame's first
   write. *)
let writable t pos =
  let f = frame t pos in
  if f != zero_frame then f else materialize t (pos lsr page_shift)

(* Every mutation of the stored bytes — architectural stores, DMA,
   zeroing, fault injection, ECC scrub corrections — reports the dirty
   range here: it moves the generation of each page the range touches,
   and the hook lets a layer caching derived views of memory (the
   machine's compiled superblock pages) invalidate. Callers pass
   [len > 0] and an in-range [pos]. *)
let notify t pos len =
  for p = pos lsr page_shift to (pos + len - 1) lsr page_shift do
    set32u t.gens (p lsl 2) (Int32.succ (get32u t.gens (p lsl 2)))
  done;
  match t.write_hook with None -> () | Some f -> f ~pos ~len

let generation t ppn =
  Int32.to_int (Bytes.get_int32_ne t.gens (4 * ppn)) land 0xffff_ffff

let size t = t.size

let check t pos len label =
  if pos < 0 || pos + len > t.size then
    invalid_arg
      (Printf.sprintf "Phys_mem.%s: address 0x%x out of range" label pos)

(* [f p off at n] for each frame the range [pos, pos+len) overlaps:
   [n] bytes from address [p], which are bytes [off, off+n) of its frame
   and bytes [at, at+n) of the range. *)
let each_frame pos len f =
  let rec go at =
    if at < len then begin
      let p = pos + at in
      let off = p land page_mask in
      let n = min (len - at) (page_size - off) in
      f p off at n;
      go (at + n)
    end
  in
  go 0

(* The little-endian value of the [n] bytes at [pos], read byte by
   byte: the access straddles two frames. *)
let read_bytes t pos n =
  let v = ref 0L in
  for i = n - 1 downto 0 do
    let p = pos + i in
    let b = Char.code (Bytes.unsafe_get (frame t p) (p land page_mask)) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let write_bytes t pos n v =
  for i = 0 to n - 1 do
    let p = pos + i in
    let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
    Bytes.unsafe_set (writable t p) (p land page_mask) (Char.unsafe_chr b)
  done

(* ECC words are 8-aligned, so one never straddles two frames. *)
let get_word t base = get64 (frame t base) (base land page_mask)

let set_word t base v = set64 (writable t base) (base land page_mask) v

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
          set_word t base (Int64.logxor (get_word t base) mask);
          notify t base 8;
          Hashtbl.remove t.faults w;
          t.pending <- t.pending - 1
    done
  end

let read_u8 t pos =
  check t pos 1 "read_u8";
  Char.code (Bytes.unsafe_get (frame t pos) (pos land page_mask))

let write_u8 t pos v =
  check t pos 1 "write_u8";
  absorb_faults t pos 1;
  let f = writable t pos in
  Bytes.unsafe_set f (pos land page_mask) (Char.unsafe_chr (v land 0xff));
  notify t pos 1

let read_u16 t pos =
  check t pos 2 "read_u16";
  let off = pos land page_mask in
  if off <= page_size - 2 then get16 (frame t pos) off
  else Int64.to_int (read_bytes t pos 2)

let write_u16 t pos v =
  check t pos 2 "write_u16";
  absorb_faults t pos 2;
  let off = pos land page_mask in
  if off <= page_size - 2 then
    set16 (writable t pos) off (v land 0xffff)
  else write_bytes t pos 2 (Int64.of_int v);
  notify t pos 2

let read_u32 t pos =
  check t pos 4 "read_u32";
  let off = pos land page_mask in
  if off <= page_size - 4 then get32 (frame t pos) off
  else Int64.to_int32 (read_bytes t pos 4)

let write_u32 t pos v =
  check t pos 4 "write_u32";
  absorb_faults t pos 4;
  let off = pos land page_mask in
  if off <= page_size - 4 then set32 (writable t pos) off v
  else write_bytes t pos 4 (Int64.of_int32 v);
  notify t pos 4

let read_u64 t pos =
  check t pos 8 "read_u64";
  let off = pos land page_mask in
  if off <= page_size - 8 then get64 (frame t pos) off else read_bytes t pos 8

let write_u64 t pos v =
  check t pos 8 "write_u64";
  absorb_faults t pos 8;
  let off = pos land page_mask in
  if off <= page_size - 8 then set64 (writable t pos) off v
  else write_bytes t pos 8 v;
  notify t pos 8

(* A page-table frame is almost all zeros, so a reader that decodes
   every slot through [read_u64] spends nearly all its time on empty
   entries. Frames never written are skipped whole; in the others this
   loop ORs four words per step and looks at them one by one only when
   the group is non-zero, and one by one for the tail. Byte order
   cannot change whether a word is zero, so the test reads native
   words. *)
let iter_nonzero_words t ~pos ~len f =
  check t pos len "iter_nonzero_words";
  if pos land 7 <> 0 || len land 7 <> 0 then
    invalid_arg "Phys_mem.iter_nonzero_words: unaligned range";
  each_frame pos len (fun p off _ n ->
      let d = frame t p in
      if d != zero_frame then begin
        let base = p - off and stop = off + n in
        let rec words i last =
          if i < last then begin
            if get64u d i <> 0L then f (base + i) (get64 d i);
            words (i + 8) last
          end
        in
        let rec groups i =
          if i + 32 > stop then words i stop
          else begin
            let x = Int64.logor (get64u d i) (get64u d (i + 8)) in
            let y = Int64.logor (get64u d (i + 16)) (get64u d (i + 24)) in
            if Int64.logor x y <> 0L then words i (i + 32);
            groups (i + 32)
          end
        in
        groups off
      end)

let read_string t ~pos ~len =
  check t pos len "read_string";
  let b = Bytes.create len in
  each_frame pos len (fun p off at n -> Bytes.blit (frame t p) off b at n);
  Bytes.unsafe_to_string b

let write_string t ~pos s =
  let len = String.length s in
  check t pos len "write_string";
  if len > 0 then begin
    absorb_faults t pos len;
    each_frame pos len (fun p off at n ->
        Bytes.blit_string s at (writable t p) off n);
    notify t pos len
  end

let zero_range t ~pos ~len =
  check t pos len "zero_range";
  each_frame pos len (fun p off _ n ->
      let d = frame t p in
      if d != zero_frame then Bytes.fill d off n '\000');
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

let inject_bit_flip t ~paddr ~bit =
  check t paddr 1 "inject_bit_flip";
  if bit < 0 || bit > 63 then invalid_arg "Phys_mem.inject_bit_flip: bit";
  let w = paddr / 8 in
  let base = w * 8 in
  let mask = Int64.shift_left 1L bit in
  set_word t base (Int64.logxor (get_word t base) mask);
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
    let first = pos / 8 and last = (pos + len - 1) / 8 in
    let corrected = ref 0 in
    let bad = ref None in
    let w = ref first in
    while !bad = None && !w <= last do
      (match Hashtbl.find_opt t.faults !w with
      | None -> ()
      | Some mask ->
          let base = !w * 8 in
          if popcount64 mask = 1 then begin
            set_word t base (Int64.logxor (get_word t base) mask);
            notify t base 8;
            Hashtbl.remove t.faults !w;
            t.pending <- t.pending - 1;
            t.corrected <- t.corrected + 1;
            incr corrected
          end
          else begin
            t.uncorrectable <- t.uncorrectable + 1;
            bad := Some base
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
