(** Enclave measurement (paper §VI-A): a SHA3-256 hash extended by every
    monitor operation that shapes the enclave's initial state, finalized
    at [init_enclave].

    Two enclaves loaded with identical configuration, virtual layout and
    contents measure equal — physical placement is deliberately {e not}
    covered. The monitor separately enforces the invariants that make
    the measurement descriptive (ascending physical loads, injective
    virtual-to-physical mapping, page tables before data).

    The context records the extension transcript and hashes it at
    {!finalize}; with a {!Cache} attached, a transcript measured before
    returns its digest without re-running SHA3 over enclave memory
    (measure once, bind many — the churn/fleet install fast path). *)

type t

(** A digest cache keyed by the {e exact} transcript bytes (structural
    string equality), so a hit can never alias two different images and
    a one-byte image change is, by construction, a different key. *)
module Cache : sig
  type cache

  val create : unit -> cache
  (** The cache flushes wholesale when 512 distinct transcripts are
      held. *)

  val hits : cache -> int
  val misses : cache -> int
  val entries : cache -> int
end

val start : unit -> t

val extend_create : t -> evbase:int -> evsize:int -> mailbox_count:int -> unit
val extend_page_table : t -> vaddr:int -> level:int -> unit

val extend_page :
  t -> vaddr:int -> r:bool -> w:bool -> x:bool -> contents:string -> unit

val extend_shared : t -> vaddr:int -> len:int -> unit
(** Shared-buffer windows are measured by geometry only — their contents
    belong to the untrusted OS. *)

val extend_thread : t -> entry_pc:int64 -> entry_sp:int64 -> unit

val finalize : ?cache:Cache.cache -> t -> string
(** The 32-byte enclave measurement. The context cannot be extended
    afterwards. The digest is identical with and without a cache. *)

val size : int
