(** Byte-accurate physical memory. Isolation is {e not} enforced here —
    the machine layer consults the platform's isolation primitive (PMP or
    DRAM regions) before every access, exactly as hardware would.

    Memory is held one 4 KiB frame at a time. Every frame starts as one
    shared zero frame that nothing writes, and gets its own buffer on its
    first write (a store, {!write_string}, DMA, a bit flip, a scrub
    correction or a fault absorption), which it keeps when zeroed: the
    host pays for the frames a run writes, not for the whole memory at
    {!create}. A word that straddles two frames is read and written byte
    by byte. *)

type t

val page_size : int
(** 4096 bytes. *)

val create : size:int -> t
(** [create ~size] is zero-filled memory; [size] must be page-aligned.
    No frame is allocated until it is written. *)

val size : t -> int

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u16 : t -> int -> int
val write_u16 : t -> int -> int -> unit
val read_u32 : t -> int -> int32
val write_u32 : t -> int -> int32 -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit

val read_frame : t -> int -> int -> string
(** [read_frame t pos len] is the frame holding the [len] bytes at
    [pos], which lie in one frame, at offset [pos land (page_size - 1)]:
    the bytes a [read_*] of them returns, valid until the next write to
    the frame. Raises [Invalid_argument] if the range is out of
    bounds. *)

val write_frame : t -> int -> int -> Bytes.t
(** [write_frame t pos len] is the frame's buffer for a store of the
    [len] bytes at [pos], once it has done what a [write_*] does before
    its bytes land: the bounds check, the absorption of faults pending
    on the words and the move of the frame's {!generation}. The caller
    writes the bytes at once. *)

val read_word : t -> int -> int
(** [read_word t pos] is [Int64.to_int (read_u64 t pos)], allocating
    nothing: the word's low 63 bits, which hold every field of a page
    table entry. The page walk reads its entries with it. *)

val iter_nonzero_words :
  t -> pos:int -> len:int -> (int -> int64 -> unit) -> unit
(** [iter_nonzero_words t ~pos ~len f] calls [f paddr v] for each
    8-byte word in [pos, pos+len) whose stored value [v] is non-zero,
    in ascending address order: what a [read_u64] loop over the range
    would return, zeros skipped, with one bounds check for the whole
    range. Read-only. Raises [Invalid_argument] if the range is out of
    bounds or [pos] or [len] is not a multiple of 8. *)

val read_string : t -> pos:int -> len:int -> string
val write_string : t -> pos:int -> string -> unit

val zero_range : t -> pos:int -> len:int -> unit
(** Models the monitor's cleaning of a reclaimed memory resource. *)

val generation : t -> int -> int
(** [generation t ppn] counts the mutations of page [ppn] so far,
    modulo 2{^32}: every path that changes stored bytes — architectural
    and DMA stores, {!write_string}, {!zero_range}, {!inject_bit_flip},
    fault absorption and ECC scrub corrections — moves the generation of
    each page it touches, at one increment a page. It is the one record
    of "this page's bytes changed", and it has two readers: the
    machine's superblock tier, which reuses a page's compiled code only
    while the generation it compiled at stands, and the invariant
    checker's memo, which replays a page-table walk only while its
    frames' generations stand. A reader that recorded a page's
    generation knows the page's bytes are the ones it read while the
    generation is unchanged, unless the page took a multiple of
    2{^32} mutations in between with the reader never looking: the
    counters stay 32 bits a page so that {!create} stays under 64 KiB
    for a 16 MiB memory. Raises [Invalid_argument] if [ppn] is outside
    the memory. *)

val page_of : int -> int
(** [page_of paddr] is the physical page number. *)

val page_base : int -> int
(** [page_base ppn] is the first address of page [ppn]. *)

(** {2 ECC fault model}

    DRAM words (8 bytes) carry SECDED check bits: a single flipped bit
    in a word is detected and corrected on access, two or more flipped
    bits are detected but uncorrectable. The plain [read_*] accessors
    above stay oblivious — they return the stored (possibly corrupted)
    bytes — because ECC runs in the memory controller, i.e. in the
    machine layer's architectural access paths, not in every raw
    inspection of the array. The [write_*] accessors absorb any fault
    pending on the words they touch (a store rewrites the check bits),
    restoring the pristine bytes before the new data lands. *)

val inject_bit_flip : t -> paddr:int -> bit:int -> unit
(** Flip bit [bit] (0..63) of the 8-byte word containing [paddr].
    Flipping the same bit twice restores the word. *)

val scrub :
  t ->
  pos:int ->
  len:int ->
  [ `Clean | `Corrected of int | `Uncorrectable of int ]
(** Run ECC over the words overlapping [pos, pos+len): correct
    single-bit faults in place (counted), stop at the first
    uncorrectable word and return its base address. O(1) when no
    faults are pending. *)

val pending_faults : t -> int
(** Number of words currently holding undetected flipped bits. *)

val corrected_count : t -> int
(** Total single-bit errors corrected so far. *)

val uncorrectable_count : t -> int
(** Total uncorrectable (machine-check) errors detected so far. *)
