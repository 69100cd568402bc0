(** Fault-class vocabulary and the [--faults SPEC] mini-language.

    A spec is a list of [(class, count)] entries; the engine schedules
    [count] independent faults of each class at seeded-random cycles.

    Concrete syntax: comma-separated [name] or [name:count] entries,
    e.g. ["bitflip:3,mce:1"]; the name ["all"] (or ["all:N"]) expands
    to every class. *)

type fault_class =
  | Bit_flip  (** single DRAM bit flip — ECC detects and corrects *)
  | Double_bit_flip
      (** two flipped bits in one word — detected, uncorrectable:
          a machine check on the next architectural access *)
  | Irq_drop  (** the interrupt controller loses one interrupt *)
  | Spurious_irq  (** an interrupt nobody asked for *)
  | Ipi_drop
      (** TLB-shootdown IPIs go missing; the protocol retries, then
          quarantines the unresponsive core *)
  | Dma_misfire  (** a device writes to an address it was never given *)
  | Core_check  (** a core dies with a non-memory machine check *)

type entry = { cls : fault_class; count : int }
type t = entry list

val all_classes : fault_class list

val class_name : fault_class -> string
(** ["bitflip"], ["bitflip2"], ["irq-drop"], ["spurious-irq"],
    ["ipi-drop"], ["dma"], ["mce"]. *)

val parse : string -> (t, string) result

val to_string : t -> string
(** Canonical spec string; [parse (to_string s)] round-trips. *)

val total : t -> int
(** Total number of faults the spec asks for. *)

val pp : Format.formatter -> t -> unit
