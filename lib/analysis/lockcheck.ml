(* The lock-discipline analyzer: a sanitizer-style lockset pass over
   the telemetry event stream. The monitor's combinators emit
   [Lock_acquired]/[Lock_released] around every transaction and
   [Guarded_write] at each guarded mutation, so the trace carries
   enough structure to detect guarded writes outside their lock, locks
   leaking across an API return, and lock-order inversions — without
   any knowledge of the monitor's internals. The pass is a left fold,
   so a caller already traversing the events can drive it one event at
   a time. *)

module Event = Sanctorum_telemetry.Event

(* Every id [check] can report, in catalog order (see
   Invariants.ids). *)
let ids = [ "lock.leak"; "lock.guard"; "lock.order" ]

(* Lock classes define the global acquisition order the monitor is
   expected to respect: resource < enclave < thread. An inversion is a
   cycle in the observed class-order graph. *)
let class_index = function
  | Event.Resource_lock -> 0
  | Event.Enclave_lock _ -> 1
  | Event.Thread_lock _ -> 2

let class_names = [| "resource"; "enclave"; "thread" |]

let same_lock (a : Event.lock) (b : Event.lock) =
  match (a, b) with
  | Resource_lock, Resource_lock -> true
  | Enclave_lock x, Enclave_lock y | Thread_lock x, Thread_lock y -> x = y
  | _ -> false

type t = {
  mutable held : (Event.lock * int) list;  (* lock, seq acquired; LIFO *)
  mutable seen : int;
      (* bit [3 * outer + inner] set once that class edge is in [edges] *)
  edges : (string * string, Event.lock * Event.lock * int) Hashtbl.t;
      (* class edge -> (witness locks, seq) of first observation *)
  mutable out : Report.violation list;
}

let create () = { held = []; seen = 0; edges = Hashtbl.create 8; out = [] }

let flag st ?severity id ~subject detail =
  st.out <- Report.v ?severity id ~subject detail :: st.out

let rec holds lock = function
  | [] -> false
  | (l, _) :: rest -> same_lock l lock || holds lock rest

let rec without lock = function
  | [] -> []
  | ((l, _) as h) :: rest ->
      if same_lock l lock then rest else h :: without lock rest

let on_acquire st ~seq lock =
  if holds lock st.held then
    flag st "lock.leak" ~subject:(Event.lock_name lock)
      (Printf.sprintf "re-acquired while already held (event #%d)" seq)
  else begin
    let inner = class_index lock in
    List.iter
      (fun (outer, _) ->
        let outer_class = class_index outer in
        let bit = 1 lsl ((3 * outer_class) + inner) in
        if st.seen land bit = 0 then begin
          st.seen <- st.seen lor bit;
          let edge = (class_names.(outer_class), class_names.(inner)) in
          Hashtbl.replace st.edges edge (outer, lock, seq)
        end)
      st.held;
    st.held <- (lock, seq) :: st.held
  end

let on_release st ~seq lock =
  if holds lock st.held then st.held <- without lock st.held
  else
    flag st "lock.leak" ~subject:(Event.lock_name lock)
      (Printf.sprintf "released but never acquired (event #%d)" seq)

let on_guarded_write st ~seq ~lock ~field =
  if not (holds lock st.held) then
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

let step st (e : Event.t) =
  match e.payload with
  | Event.Lock_acquired { lock } -> on_acquire st ~seq:e.seq lock
  | Event.Lock_released { lock } -> on_release st ~seq:e.seq lock
  | Event.Guarded_write { lock; field } ->
      on_guarded_write st ~seq:e.seq ~lock ~field
  | Event.Sm_api { api; _ } -> on_api_return st ~seq:e.seq api
  | _ -> ()

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

let finish st =
  List.iter
    (fun (lock, acquired) ->
      flag st "lock.leak" ~subject:(Event.lock_name lock)
        (Printf.sprintf
           "acquired at event #%d still held at the end of the trace" acquired))
    st.held;
  check_order st;
  List.rev st.out

let check events =
  let st = create () in
  List.iter (step st) events;
  finish st
