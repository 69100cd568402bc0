(** Trusted message passing for local attestation (paper §VI-B, Fig. 5).

    Each enclave owns a fixed set of mailboxes in monitor memory. A
    recipient must first declare the sender it is willing to hear from
    ([accept]) — this is the anti-denial-of-service rule — after which a
    single message from that exact sender can be deposited ([deposit])
    and retrieved ([retrieve]) together with the sender's measurement,
    which the monitor itself records and which therefore cannot be
    forged. *)

type sender = From_os | From_enclave of int  (** eid *)

type t

val message_size : int
(** Fixed message size in bytes (shorter messages are zero-padded). *)

val create : slots:int -> t

val accept : t -> sender:sender -> unit Api_error.result
(** Ready a free mailbox slot for [sender]. Re-accepting the same sender
    resets its (possibly full) slot to empty. *)

val deposit :
  t -> sender:sender -> sender_measurement:string -> msg:string ->
  unit Api_error.result
(** Fails with [Invalid_state] unless the recipient accepted this sender
    and the slot is empty (Fig. 5: only [empty --send_mail--> full]). *)

val retrieve : t -> sender:sender -> (string * string) Api_error.result
(** [(message, sender_measurement)]; the slot returns to the
    unaccepted pool. *)

val wipe : t -> unit
(** Drop all state (enclave deletion). *)

val snapshot : t -> (sender * bool) list
(** The accepted slots in slot order as [(sender, full)] pairs —
    the semantic mailbox state (Fig. 5), without the cumulative
    operation counters of {!stats}. Read-only. *)

val stats : t -> int * int * int
(** [(deposited, retrieved, rejected)] operation counts since
    creation. [rejected] counts failed deposits (unaccepted sender,
    full slot, oversized message). *)
