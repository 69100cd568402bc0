(* Host-time spans around the public calls the benchmark makes, kept in
   memory and written out when the run ends. Every time comes from the
   monotonic clock; process CPU time ([Sys.time]) would omit waiting and,
   under the fleet's domains, sum every domain's time. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  t0 : int64;  (** monotonic ns *)
  t1 : int64;
}

let now () = Monotonic_clock.now ()
let seconds t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let duration s = seconds s.t0 s.t1

(* Recording is off in the untraced runs that give the end-to-end
   metrics: there [call] is a plain application and only [piece] reads
   the clock. *)
let enabled = ref false

let recorded = ref []
let next_id = ref 0
let open_spans = ref []

let parent () = match !open_spans with id :: _ -> id | [] -> -1

(* Run [f], reading the clock on both sides; the span is kept when
   recording is on. Returns [f]'s result, its start and its host
   seconds. *)
let piece name f =
  if not !enabled then begin
    let t0 = now () in
    let r = f () in
    (r, (t0, seconds t0 (now ())))
  end
  else begin
    let id = !next_id in
    incr next_id;
    let parent = parent () in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f in
    let t1 = now () in
    recorded := { id; name; parent; t0; t1 } :: !recorded;
    (r, (t0, seconds t0 t1))
  end

(* A public call whose duration the untraced run does not need. *)
let call name f = if !enabled then fst (piece name f) else f ()

(* Start and host seconds of a span. *)
let sample s = (s.t0, duration s)

let by_start l = List.sort (fun a b -> compare a.id b.id) l

(* Every span recorded so far, in start order. *)
let all () = by_start !recorded

(* The spans opened since [next_id] read [first], in start order. *)
let since first = by_start (List.filter (fun s -> s.id >= first) !recorded)

let children sp spans = List.filter (fun s -> s.parent = sp.id) spans

(* [parent]'s direct children called [name], as samples, in order. *)
let samples ~parent ~name spans =
  List.filter (fun s -> s.parent = parent.id && s.name = name) spans
  |> List.map sample |> Array.of_list

let write path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.name s.parent s.t0 s.t1)
    spans;
  close_out oc
