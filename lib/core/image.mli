(** A portable description of an enclave's initial state: virtual
    layout, page contents, shared windows, and threads.

    The measurement of an image is a pure function ({!measurement}) that
    replays exactly the monitor's measurement schedule (§VI-A), so a
    verifier — or the monitor itself, for the hard-coded signing-enclave
    measurement — can compute the expected value without loading
    anything. The OS loader ({!Sanctorum_os.Loader}) follows the same
    canonical order, so a faithfully loaded image measures equal. *)

type page = {
  vaddr : int;
  r : bool;
  w : bool;
  x : bool;
  contents : string;  (** at most one page; zero-padded when shorter *)
}

type t = {
  evbase : int;
  evsize : int;
  mailbox_slots : int;
  pages : page list;  (** in load order; vaddrs inside evrange *)
  shared : (int * int) list;  (** (vaddr, len) windows outside evrange *)
  threads : (int64 * int64) list;  (** (entry_pc, entry_sp) *)
}

val make :
  evbase:int ->
  evsize:int ->
  ?mailbox_slots:int ->
  ?shared:(int * int) list ->
  ?threads:(int64 * int64) list ->
  page list ->
  t
(** Raises [Invalid_argument] on unaligned or out-of-range layout. *)

val of_program :
  evbase:int ->
  ?data_pages:int ->
  ?mailbox_slots:int ->
  ?shared:(int * int) list ->
  Sanctorum_hw.Isa.t list ->
  t
(** Convenience: one executable page of code at [evbase] followed by
    [data_pages] zeroed read-write pages, and a single thread entering
    at [evbase] with the stack at the top of the last data page. *)

val required_page_tables : t -> (int * int) list
(** The page-table nodes needed to map every page and shared window:
    [(vaddr, level)] in canonical order (root first, then level 1 nodes
    by ascending address, then level 0). *)

val page_count : t -> int
(** Enclave-private physical pages consumed: tables plus data pages. *)

val measurement : t -> string
(** The measurement the monitor will compute for a faithful load. *)
