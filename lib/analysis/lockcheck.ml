(* The lock-discipline analyzer: a sanitizer-style lockset pass over
   the telemetry event stream. The monitor's combinators emit
   [Lock_acquired]/[Lock_released] around every transaction and
   [Guarded_write] at each guarded mutation, so the trace carries
   enough structure to detect guarded writes outside their lock, locks
   leaking across an API return, and lock-order inversions — without
   any knowledge of the monitor's internals. *)

module Event = Sanctorum_telemetry.Event

(* Every id [check] can report, in catalog order (see
   Invariants.ids). *)
let ids = [ "lock.leak"; "lock.guard"; "lock.order" ]

(* Lock classes define the global acquisition order the monitor is
   expected to respect: resource < enclave < thread. An inversion is a
   cycle in the observed class-order graph. *)
let lock_class = function
  | Event.Resource_lock -> "resource"
  | Event.Enclave_lock _ -> "enclave"
  | Event.Thread_lock _ -> "thread"

type state = {
  mutable held : (Event.lock * int) list;  (* lock, seq acquired; LIFO *)
  edges : (string * string, Event.lock * Event.lock * int) Hashtbl.t;
      (* class edge -> (witness locks, seq) of first observation *)
  mutable out : Report.violation list;
}

let flag st ?severity id ~subject detail =
  st.out <- Report.v ?severity id ~subject detail :: st.out

let on_acquire st ~seq lock =
  if List.mem_assoc lock st.held then
    flag st "lock.leak" ~subject:(Event.lock_name lock)
      (Printf.sprintf "re-acquired while already held (event #%d)" seq)
  else begin
    List.iter
      (fun (outer, _) ->
        let edge = (lock_class outer, lock_class lock) in
        if not (Hashtbl.mem st.edges edge) then
          Hashtbl.replace st.edges edge (outer, lock, seq))
      st.held;
    st.held <- (lock, seq) :: st.held
  end

let on_release st ~seq lock =
  if List.mem_assoc lock st.held then
    st.held <- List.remove_assoc lock st.held
  else
    flag st "lock.leak" ~subject:(Event.lock_name lock)
      (Printf.sprintf "released but never acquired (event #%d)" seq)

let on_guarded_write st ~seq ~lock ~field =
  if not (List.mem_assoc lock st.held) then
    flag st "lock.guard" ~subject:(Event.lock_name lock)
      (Printf.sprintf "field [%s] written without holding the lock (event #%d)"
         field seq)

(* An API call returned: every lock still held leaked across the
   transaction boundary. Report each once and forget it so one leak
   does not re-fire on every later call. *)
let on_api_return st ~seq api =
  List.iter
    (fun (lock, acquired) ->
      flag st "lock.leak" ~subject:(Event.lock_name lock)
        (Printf.sprintf
           "acquired at event #%d still held when [%s] returned (event #%d)"
           acquired api seq))
    st.held;
  st.held <- []

let check_order st =
  (* Transitive closure over the small class graph, then flag each
     observed edge that participates in a cycle. *)
  let classes =
    Hashtbl.fold (fun (a, b) _ acc -> a :: b :: acc) st.edges []
    |> List.sort_uniq compare
  in
  let reach = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace reach (c, c) ()) classes;
  Hashtbl.iter (fun e _ -> Hashtbl.replace reach e ()) st.edges;
  List.iter
    (fun k ->
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if Hashtbl.mem reach (i, k) && Hashtbl.mem reach (k, j) then
                Hashtbl.replace reach (i, j) ())
            classes)
        classes)
    classes;
  Hashtbl.iter
    (fun (a, b) (outer, inner, seq) ->
      if a <> b && Hashtbl.mem reach (b, a) then
        flag st "lock.order" ~subject:(Printf.sprintf "%s -> %s" a b)
          (Printf.sprintf
             "acquired %s while holding %s (event #%d), inverting the \
              established %s -> %s order"
             (Event.lock_name inner) (Event.lock_name outer) seq b a))
    st.edges

let check events =
  let st = { held = []; edges = Hashtbl.create 8; out = [] } in
  List.iter
    (fun (e : Event.t) ->
      match e.payload with
      | Event.Lock_acquired { lock } -> on_acquire st ~seq:e.seq lock
      | Event.Lock_released { lock } -> on_release st ~seq:e.seq lock
      | Event.Guarded_write { lock; field } ->
          on_guarded_write st ~seq:e.seq ~lock ~field
      | Event.Sm_api { api; _ } -> on_api_return st ~seq:e.seq api
      | _ -> ())
    events;
  List.iter
    (fun (lock, acquired) ->
      flag st "lock.leak" ~subject:(Event.lock_name lock)
        (Printf.sprintf
           "acquired at event #%d still held at the end of the trace" acquired))
    st.held;
  check_order st;
  List.rev st.out
