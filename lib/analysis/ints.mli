(** Hash tables keyed by ints, for the passes' per-eid, per-core and
    per-frame tables: a lookup hashes with one multiply and compares
    with [Int.equal], calling neither the polymorphic hash nor its
    compare. *)

include Hashtbl.S with type key = int
