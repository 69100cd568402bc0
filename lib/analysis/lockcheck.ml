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
   cycle in the observed class-order graph. A lock is held as one int,
   its class in the two low bits, so the pass takes, finds and drops
   locks without touching the heap. *)
let code = function
  | Event.Resource_lock -> 0
  | Event.Enclave_lock e -> (e lsl 2) lor 1
  | Event.Thread_lock t -> (t lsl 2) lor 2

let lock_of code =
  match code land 3 with
  | 0 -> Event.Resource_lock
  | 1 -> Event.Enclave_lock (code asr 2)
  | _ -> Event.Thread_lock (code asr 2)

let class_names = [| "resource"; "enclave"; "thread" |]

(* The held locks are a stack in two arrays, oldest at index 0; the
   arrays double when a take finds them full. *)
type t = {
  mutable locks : int array;  (* the codes [locks.(0 .. held - 1)] *)
  mutable since : int array;  (* the seq each held lock was taken at *)
  mutable held : int;
  mutable seen : int;
      (* bit [3 * outer + inner] set once that class edge is in [edges] *)
  edges : (string * string, Event.lock * Event.lock * int) Hashtbl.t;
      (* class edge -> (witness locks, seq) of first observation *)
  mutable out : Report.violation list;
}

let create () =
  {
    locks = Array.make 8 0;
    since = Array.make 8 0;
    held = 0;
    seen = 0;
    edges = Hashtbl.create 8;
    out = [];
  }

let flag st ?severity id ~subject detail =
  st.out <- Report.v ?severity id ~subject detail :: st.out

(* The index of the lock coded [c] among the held locks, or -1. *)
let find st c =
  let i = ref (st.held - 1) in
  while !i >= 0 && st.locks.(!i) <> c do
    decr i
  done;
  !i

let on_acquire st ~seq lock =
  let c = code lock in
  if find st c >= 0 then
    flag st "lock.leak" ~subject:(Event.lock_name lock)
      (Printf.sprintf "re-acquired while already held (event #%d)" seq)
  else begin
    let inner = c land 3 in
    (* newest first: the witness of an edge is the latest outer lock *)
    for i = st.held - 1 downto 0 do
      let outer = st.locks.(i) land 3 in
      let bit = 1 lsl ((3 * outer) + inner) in
      if st.seen land bit = 0 then begin
        st.seen <- st.seen lor bit;
        let edge = (class_names.(outer), class_names.(inner)) in
        Hashtbl.replace st.edges edge (lock_of st.locks.(i), lock, seq)
      end
    done;
    if st.held = Array.length st.locks then begin
      st.locks <- Array.append st.locks st.locks;
      st.since <- Array.append st.since st.since
    end;
    st.locks.(st.held) <- c;
    st.since.(st.held) <- seq;
    st.held <- st.held + 1
  end

let on_release st ~seq lock =
  let i = find st (code lock) in
  if i < 0 then
    flag st "lock.leak" ~subject:(Event.lock_name lock)
      (Printf.sprintf "released but never acquired (event #%d)" seq)
  else begin
    for j = i to st.held - 2 do
      st.locks.(j) <- st.locks.(j + 1);
      st.since.(j) <- st.since.(j + 1)
    done;
    st.held <- st.held - 1
  end

let on_guarded_write st ~seq ~lock ~field =
  if find st (code lock) < 0 then
    flag st "lock.guard" ~subject:(Event.lock_name lock)
      (Printf.sprintf "field [%s] written without holding the lock (event #%d)"
         field seq)

(* Flag each held lock, newest first, with [detail acquired], and drop
   them all. *)
let flag_held st detail =
  for i = st.held - 1 downto 0 do
    flag st "lock.leak" ~subject:(Event.lock_name (lock_of st.locks.(i)))
      (detail st.since.(i))
  done;
  st.held <- 0

(* An API call returned: every lock still held leaked across the
   transaction boundary. Report each once and forget it so one leak
   does not re-fire on every later call. *)
let on_api_return st ~seq api =
  if st.held > 0 then
    flag_held st (fun acquired ->
        Printf.sprintf
          "acquired at event #%d still held when [%s] returned (event #%d)"
          acquired api seq)

let step st ~seq = function
  | Event.Lock_acquired { lock } -> on_acquire st ~seq lock
  | Event.Lock_released { lock } -> on_release st ~seq lock
  | Event.Guarded_write { lock; field } -> on_guarded_write st ~seq ~lock ~field
  | Event.Sm_api { api; _ } -> on_api_return st ~seq api
  | _ -> ()

(* The transitive closure of the observed class edges, the 3x3 bit
   matrix [seen], then each observed edge between two classes that lies
   on a cycle, in [edges]' order. *)
let check_order st =
  let edge r a b = r land (1 lsl ((3 * a) + b)) <> 0 in
  let reach = ref st.seen in
  for k = 0 to 2 do
    for i = 0 to 2 do
      for j = 0 to 2 do
        if edge !reach i k && edge !reach k j then
          reach := !reach lor (1 lsl ((3 * i) + j))
      done
    done
  done;
  Hashtbl.iter
    (fun (a, b) (outer, inner, seq) ->
      if a <> b && edge !reach (code inner land 3) (code outer land 3) then
        flag st "lock.order" ~subject:(Printf.sprintf "%s -> %s" a b)
          (Printf.sprintf
             "acquired %s while holding %s (event #%d), inverting the \
              established %s -> %s order"
             (Event.lock_name inner) (Event.lock_name outer) seq b a))
    st.edges

let finish st =
  flag_held st
    (Printf.sprintf "acquired at event #%d still held at the end of the trace");
  check_order st;
  List.rev st.out

let check events =
  let st = create () in
  List.iter (fun (e : Event.t) -> step st ~seq:e.seq e.payload) events;
  finish st
