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

type enclave_state = { mutable initialized : bool; mutable entered : int }

type t = {
  alive : (int, enclave_state) Hashtbl.t;  (* eid -> state *)
  on_core : (int, int) Hashtbl.t;  (* core -> eid currently inside *)
  pending_aex : (int, unit) Hashtbl.t;  (* eid with an unconsumed AEX *)
  granted : (string * int, unit) Hashtbl.t;  (* (kind, rid) outstanding *)
  pending_mail : (int, int) Hashtbl.t;  (* recipient eid -> undelivered *)
  mutable out : Report.violation list;
}

let flag st ?severity id ~subject detail =
  st.out <- Report.v ?severity id ~subject detail :: st.out

let esub eid = Printf.sprintf "enclave 0x%x" eid

(* A dying core abandons whatever thread was inside: the monitor will
   never emit an exit for it, and — on the machine-check path — the
   resident enclave is emergency-reclaimed while formally entered.
   Release the trace-level entry so neither reads as a violation. *)
let condemn st ~core =
  match Hashtbl.find_opt st.on_core core with
  | None -> ()
  | Some eid ->
      Hashtbl.remove st.on_core core;
      (match Hashtbl.find_opt st.alive eid with
      | Some e when e.entered > 0 -> e.entered <- e.entered - 1
      | Some _ | None -> ());
      Hashtbl.remove st.pending_aex eid

let step st ({ seq; core; payload; _ } : Event.t) =
  match payload with
  | Event.Enclave_created { eid } ->
      if Hashtbl.mem st.alive eid then
        flag st "order.create" ~subject:(esub eid)
          (Printf.sprintf "created twice without destroy (event #%d)" seq)
      else Hashtbl.replace st.alive eid { initialized = false; entered = 0 }
  | Event.Enclave_initialized { eid } -> (
      match Hashtbl.find_opt st.alive eid with
      | None ->
          flag st "order.init" ~subject:(esub eid)
            (Printf.sprintf "initialized before create (event #%d)" seq)
      | Some e ->
          if e.initialized then
            flag st "order.init" ~subject:(esub eid)
              (Printf.sprintf "initialized twice (event #%d)" seq)
          else e.initialized <- true)
  | Event.Enclave_entered { eid; target_core; _ } -> (
      match Hashtbl.find_opt st.alive eid with
      | None ->
          flag st "order.enter" ~subject:(esub eid)
            (Printf.sprintf "entered before create (event #%d)" seq)
      | Some e ->
          if not e.initialized then
            flag st "order.enter" ~subject:(esub eid)
              (Printf.sprintf "entered while still loading (event #%d)" seq);
          e.entered <- e.entered + 1;
          Hashtbl.replace st.on_core target_core eid)
  | Event.Enclave_exited { eid; aex } -> (
      match Hashtbl.find_opt st.alive eid with
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
          Hashtbl.remove st.on_core core;
          if aex then Hashtbl.replace st.pending_aex eid ())
  | Event.Machine_check _ ->
      (* the envelope names the faulted core; the trap handler that
         follows emergency-reclaims its resident enclave before the
         quarantine event appears *)
      condemn st ~core
  | Event.Core_quarantined { core; _ } ->
      (* shootdown-timeout path: no machine-check event precedes it *)
      condemn st ~core
  | Event.Enclave_destroyed { eid } -> (
      match Hashtbl.find_opt st.alive eid with
      | None ->
          flag st "order.destroy" ~subject:(esub eid)
            (Printf.sprintf "destroyed before create (event #%d)" seq)
      | Some e ->
          if e.entered > 0 then
            flag st "order.destroy" ~subject:(esub eid)
              (Printf.sprintf
                 "destroyed with a thread still inside (event #%d)" seq);
          Hashtbl.remove st.alive eid;
          Hashtbl.remove st.pending_aex eid)
  | Event.Region_granted { kind; rid; _ } ->
      if Hashtbl.mem st.granted (kind, rid) then
        flag st "order.grant" ~subject:(Printf.sprintf "%s %d" kind rid)
          (Printf.sprintf
             "granted again without an intervening free (event #%d)" seq)
      else Hashtbl.replace st.granted (kind, rid) ()
  | Event.Region_freed { kind; rid } ->
      (* a free of a grant that predates the trace is fine *)
      Hashtbl.remove st.granted (kind, rid)
  | Event.Sm_api { api = "read_aex_state"; caller; outcome = Event.Accepted; _ }
    -> (
      match caller with
      | Event.Os -> ()
      | Event.Enclave eid ->
          if Hashtbl.mem st.pending_aex eid then
            Hashtbl.remove st.pending_aex eid
          else
            flag st "order.aex-resume" ~subject:(esub eid)
              (Printf.sprintf
                 "AEX state read with no AEX pending (event #%d)" seq))
  | Event.Mailbox_sent { recipient; _ } ->
      Hashtbl.replace st.pending_mail recipient
        (1
        + Option.value ~default:0 (Hashtbl.find_opt st.pending_mail recipient))
  | Event.Mailbox_received { recipient; _ } -> (
      match Hashtbl.find_opt st.pending_mail recipient with
      | Some n when n > 0 -> Hashtbl.replace st.pending_mail recipient (n - 1)
      | Some _ | None ->
          flag st "order.mailbox" ~subject:(esub recipient)
            (Printf.sprintf
               "message retrieved but none was deposited (event #%d)" seq))
  | _ -> ()

let create () =
  {
    alive = Hashtbl.create 8;
    on_core = Hashtbl.create 8;
    pending_aex = Hashtbl.create 8;
    granted = Hashtbl.create 32;
    pending_mail = Hashtbl.create 8;
    out = [];
  }

let feed st events = List.iter (step st) events

let findings st = List.rev st.out

let check events =
  let st = create () in
  feed st events;
  findings st
