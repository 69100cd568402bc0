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

val set_write_hook : t -> (pos:int -> len:int -> unit) option -> unit
(** Observe every mutation of the stored bytes: architectural and DMA
    stores, {!write_string}, {!zero_range}, {!inject_bit_flip}, fault
    absorption and ECC scrub corrections all report the byte range they
    dirtied. The machine layer installs its superblock-page invalidator
    here; at most one hook is live per memory. The hook runs with the
    bytes already mutated and must not touch this memory. Each mutation
    pays one increment per page it touches (see {!generation}), then
    one option match when no hook is installed. *)

val generation : t -> int -> int
(** [generation t ppn] counts the mutations reported for page [ppn]
    so far (every path {!set_write_hook} lists), modulo 2{^32}. A
    reader that recorded a page's generation knows the page's bytes are
    the ones it read while the generation is unchanged, unless the page
    took a multiple of 2{^32} mutations in between. Raises
    [Invalid_argument] if [ppn] is outside the memory. *)

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
