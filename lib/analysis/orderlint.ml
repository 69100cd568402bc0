(* The orderliness lint (à la Guardian): a trace-level pass over the
   lifecycle events the monitor emits, flagging API sequences that are
   illegal regardless of the monitor's internal state — an enclave
   entered before it was initialized, an AEX resume with no AEX
   pending, a region granted twice with no intervening free. The pass
   is pure: it sees only the events, so it can run over recorded
   traces long after the machine is gone. It is a left fold, so a long
   run can [feed] it each window of the trace as it is drained instead
   of keeping the whole trace for one [check]. *)

module Event = Sanctorum_telemetry.Event

(* Every id [check] can report, in catalog order (see
   Invariants.ids). *)
let ids =
  [
    "order.create";
    "order.init";
    "order.enter";
    "order.exit";
    "order.destroy";
    "order.grant";
    "order.aex-resume";
    "order.mailbox";
  ]

type enclave_state = {
  mutable initialized : bool;
  mutable entered : int;
  mutable aex_pending : bool;  (* an AEX not yet consumed *)
}

(* Every table is keyed on ints ({!Ints}). *)
type t = {
  alive : enclave_state Ints.t;  (* eid -> state *)
  on_core : int Ints.t;  (* core -> eid currently inside *)
  mutable granted : (string * unit Ints.t) list;
      (* resource kind -> its outstanding rids *)
  pending_mail : int Ints.t;  (* recipient eid -> undelivered *)
  mutable out : Report.violation list;
}

let flag st ?severity id ~subject detail =
  st.out <- Report.v ?severity id ~subject detail :: st.out

let esub eid = Printf.sprintf "enclave 0x%x" eid

(* The outstanding rids of resource kind [kind]; a trace names one or
   two kinds. *)
let granted st kind =
  match List.find_opt (fun (k, _) -> String.equal k kind) st.granted with
  | Some (_, rids) -> rids
  | None ->
      let rids = Ints.create 32 in
      st.granted <- (kind, rids) :: st.granted;
      rids

(* A dying core abandons whatever thread was inside: the monitor will
   never emit an exit for it, and — on the machine-check path — the
   resident enclave is emergency-reclaimed while formally entered.
   Release the trace-level entry so neither reads as a violation. *)
let condemn st ~core =
  match Ints.find_opt st.on_core core with
  | None -> ()
  | Some eid -> (
      Ints.remove st.on_core core;
      match Ints.find_opt st.alive eid with
      | Some e ->
          if e.entered > 0 then e.entered <- e.entered - 1;
          e.aex_pending <- false
      | None -> ())

let step st ~seq ~core = function
  | Event.Enclave_created { eid } ->
      if Ints.mem st.alive eid then
        flag st "order.create" ~subject:(esub eid)
          (Printf.sprintf "created twice without destroy (event #%d)" seq)
      else
        Ints.replace st.alive eid
          { initialized = false; entered = 0; aex_pending = false }
  | Event.Enclave_initialized { eid } -> (
      match Ints.find_opt st.alive eid with
      | None ->
          flag st "order.init" ~subject:(esub eid)
            (Printf.sprintf "initialized before create (event #%d)" seq)
      | Some e ->
          if e.initialized then
            flag st "order.init" ~subject:(esub eid)
              (Printf.sprintf "initialized twice (event #%d)" seq)
          else e.initialized <- true)
  | Event.Enclave_entered { eid; target_core; _ } -> (
      match Ints.find_opt st.alive eid with
      | None ->
          flag st "order.enter" ~subject:(esub eid)
            (Printf.sprintf "entered before create (event #%d)" seq)
      | Some e ->
          if not e.initialized then
            flag st "order.enter" ~subject:(esub eid)
              (Printf.sprintf "entered while still loading (event #%d)" seq);
          e.entered <- e.entered + 1;
          Ints.replace st.on_core target_core eid)
  | Event.Enclave_exited { eid; aex } -> (
      match Ints.find_opt st.alive eid with
      | None ->
          flag st "order.exit" ~subject:(esub eid)
            (Printf.sprintf "exit of an enclave never created (event #%d)" seq)
      | Some e ->
          if e.entered = 0 then
            flag st "order.exit" ~subject:(esub eid)
              (Printf.sprintf "exit with no outstanding enter (event #%d)" seq)
          else e.entered <- e.entered - 1;
          (* the monitor emits an exit, AEX included, on the core that
             left *)
          Ints.remove st.on_core core;
          if aex then e.aex_pending <- true)
  | Event.Machine_check _ ->
      (* the envelope names the faulted core; the trap handler that
         follows emergency-reclaims its resident enclave before the
         quarantine event appears *)
      condemn st ~core
  | Event.Core_quarantined { core; _ } ->
      (* shootdown-timeout path: no machine-check event precedes it *)
      condemn st ~core
  | Event.Enclave_destroyed { eid } -> (
      match Ints.find_opt st.alive eid with
      | None ->
          flag st "order.destroy" ~subject:(esub eid)
            (Printf.sprintf "destroyed before create (event #%d)" seq)
      | Some e ->
          if e.entered > 0 then
            flag st "order.destroy" ~subject:(esub eid)
              (Printf.sprintf
                 "destroyed with a thread still inside (event #%d)" seq);
          Ints.remove st.alive eid)
  | Event.Region_granted { kind; rid; _ } ->
      let rids = granted st kind in
      if Ints.mem rids rid then
        flag st "order.grant" ~subject:(Printf.sprintf "%s %d" kind rid)
          (Printf.sprintf
             "granted again without an intervening free (event #%d)" seq)
      else Ints.replace rids rid ()
  | Event.Region_freed { kind; rid } ->
      (* a free of a grant that predates the trace is fine *)
      Ints.remove (granted st kind) rid
  | Event.Sm_api { api = "read_aex_state"; caller; outcome = Event.Accepted; _ }
    -> (
      match caller with
      | Event.Os -> ()
      | Event.Enclave eid -> (
          match Ints.find_opt st.alive eid with
          | Some e when e.aex_pending -> e.aex_pending <- false
          | Some _ | None ->
              flag st "order.aex-resume" ~subject:(esub eid)
                (Printf.sprintf
                   "AEX state read with no AEX pending (event #%d)" seq)))
  | Event.Mailbox_sent { recipient; _ } ->
      Ints.replace st.pending_mail recipient
        (1
        + Option.value ~default:0 (Ints.find_opt st.pending_mail recipient))
  | Event.Mailbox_received { recipient; _ } -> (
      match Ints.find_opt st.pending_mail recipient with
      | Some n when n > 0 -> Ints.replace st.pending_mail recipient (n - 1)
      | Some _ | None ->
          flag st "order.mailbox" ~subject:(esub recipient)
            (Printf.sprintf
               "message retrieved but none was deposited (event #%d)" seq))
  | _ -> ()

let create () =
  {
    alive = Ints.create 8;
    on_core = Ints.create 8;
    granted = [];
    pending_mail = Ints.create 8;
    out = [];
  }

let feed st events =
  List.iter
    (fun (e : Event.t) -> step st ~seq:e.seq ~core:e.core e.payload)
    events

let findings st = List.rev st.out

let check events =
  let st = create () in
  feed st events;
  findings st
