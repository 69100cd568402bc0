type t = {
  enabled : bool;
  ring : Event.t Ring.t option;
  metrics : Metrics.t option;
  mutable seq : int;
}

let null = { enabled = false; ring = None; metrics = None; seq = 0 }

let create ?(capacity = 65536) ?metrics () =
  { enabled = true; ring = Some (Ring.create ~capacity); metrics; seq = 0 }

let enabled t = t.enabled
let metrics t = t.metrics

let emit t ~core ~cycles payload =
  match t.ring with
  | None -> ()
  | Some r ->
      let seq = t.seq in
      t.seq <- seq + 1;
      Ring.push r { Event.seq; core; cycles; payload }

let events t = match t.ring with None -> [] | Some r -> Ring.to_list r
let iter f t = match t.ring with None -> () | Some r -> Ring.iter f r
let event_count t = t.seq
let dropped t = match t.ring with None -> 0 | Some r -> Ring.dropped r

let clear t =
  (match t.ring with None -> () | Some r -> Ring.clear r);
  t.seq <- 0

let incr_counter t name =
  match t.metrics with
  | None -> ()
  | Some m -> Metrics.incr (Metrics.counter m name)

let observe t name sample =
  match t.metrics with
  | None -> ()
  | Some m -> Metrics.observe (Metrics.histogram m name) sample
