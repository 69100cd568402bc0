(* The event ring is three flat arrays: the event pushed [i]-th since
   the last clear sits in slot [i mod capacity] of each, and [i] is its
   seq. Emitting stores the core and cycles unboxed and the caller's
   payload by reference, so an event costs no record and no option box;
   [iter] and [events] build the [Event.t] values they hand out. The
   arrays start empty and double, up to the capacity, when an emit
   finds them full: a sink's memory follows the most events it has
   held, and an engine's window of a few thousand never touches the
   rest of its 65,536 slots. *)

type t = {
  capacity : int; (* 0 for the null sink *)
  mutable cores : int array;
  mutable cycles : int array;
  mutable payloads : Event.payload array;
  metrics : Metrics.t option;
  mutable pushed : int; (* events since the last clear = next seq *)
}

(* What a slot not in use holds, so the ring keeps no dropped payload
   alive. *)
let vacant = Event.Trap_enter { cause = "" }

let null =
  {
    capacity = 0;
    cores = [||];
    cycles = [||];
    payloads = [||];
    metrics = None;
    pushed = 0;
  }

let create ?(capacity = 65536) ?metrics () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    capacity;
    cores = [||];
    cycles = [||];
    payloads = [||];
    metrics;
    pushed = 0;
  }

let enabled t = t.capacity > 0
let metrics t = t.metrics

let grow t =
  let n = min t.capacity (max 1024 (2 * Array.length t.payloads)) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.cores <- extend t.cores 0;
  t.cycles <- extend t.cycles 0;
  t.payloads <- extend t.payloads vacant

let emit t ~core ~cycles payload =
  if enabled t then begin
    if t.pushed = Array.length t.payloads && t.pushed < t.capacity then grow t;
    let i = t.pushed mod t.capacity in
    t.cores.(i) <- core;
    t.cycles.(i) <- cycles;
    t.payloads.(i) <- payload;
    t.pushed <- t.pushed + 1
  end

let held t = min t.pushed t.capacity

let event t seq =
  let i = seq mod t.capacity in
  {
    Event.seq;
    core = t.cores.(i);
    cycles = t.cycles.(i);
    payload = t.payloads.(i);
  }

let iter f t =
  for seq = t.pushed - held t to t.pushed - 1 do
    f (event t seq)
  done

let events t =
  let acc = ref [] in
  for seq = t.pushed - 1 downto t.pushed - held t do
    acc := event t seq :: !acc
  done;
  !acc

let event_count t = t.pushed
let dropped t = t.pushed - held t

let clear t =
  if enabled t then begin
    Array.fill t.payloads 0 (held t) vacant;
    t.pushed <- 0
  end

let incr_counter t name =
  match t.metrics with
  | None -> ()
  | Some m -> Metrics.incr (Metrics.counter m name)

let observe t name sample =
  match t.metrics with
  | None -> ()
  | Some m -> Metrics.observe (Metrics.histogram m name) sample
