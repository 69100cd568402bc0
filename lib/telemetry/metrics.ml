type counter = { c_name : string; mutable v : int }

(* Log-linear buckets (the HdrHistogram shape): values 0..7 get exact
   buckets; above that, each power-of-two octave is split into 4 linear
   sub-buckets, so a bucket's upper bound is at most 25% above any
   sample it holds. The plain power-of-two scheme this replaces
   collapsed all samples within one octave — p50/p90/p99 of a latency
   stream concentrated around one value were indistinguishable. *)
let bucket_count = 8 + (4 * 60)

type histogram = {
  h_name : string;
  mutable hcount : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
  buckets : int array;
}

type summary = { count : int; sum : int; min : int; max : int; mean : float }
type item = Counter of counter | Histogram of histogram
type t = { tbl : (string, item) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Counter c) -> c
  | Some (Histogram _) ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %S is registered as a histogram" name)
  | None ->
      let c = { c_name = name; v = 0 } in
      Hashtbl.replace t.tbl name (Counter c);
      c

let histogram t name =
  match Hashtbl.find_opt t.tbl name with
  | Some (Histogram h) -> h
  | Some (Counter _) ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %S is registered as a counter" name)
  | None ->
      let h =
        {
          h_name = name;
          hcount = 0;
          hsum = 0;
          hmin = max_int;
          hmax = min_int;
          buckets = Array.make bucket_count 0;
        }
      in
      Hashtbl.replace t.tbl name (Histogram h);
      h

let incr c = c.v <- c.v + 1
let add c n = c.v <- c.v + n
let value c = c.v

let bucket_of v =
  if v < 8 then v
  else begin
    let rec msb_of i x = if x <= 1 then i else msb_of (i + 1) (x lsr 1) in
    let msb = msb_of 0 v in
    let sub = (v lsr (msb - 2)) land 3 in
    min (bucket_count - 1) (8 + ((msb - 3) * 4) + sub)
  end

(* Inclusive upper bound of bucket [b] — what [percentile] reports. *)
let bucket_upper b =
  if b < 8 then b
  else begin
    let msb = 3 + ((b - 8) / 4) in
    let sub = (b - 8) mod 4 in
    if msb >= 60 then max_int else ((5 + sub) lsl (msb - 2)) - 1
  end

let observe h sample =
  let sample = max 0 sample in
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum + sample;
  if sample < h.hmin then h.hmin <- sample;
  if sample > h.hmax then h.hmax <- sample;
  let b = bucket_of sample in
  h.buckets.(b) <- h.buckets.(b) + 1

(* Percentiles resolve to the log-linear buckets: walk to the bucket
   holding the q-th sample and report its upper bound, clamped to the
   observed maximum. An upper bound within 25%, monotone and cheap —
   good enough for latency reporting. *)
let percentile h q =
  if h.hcount = 0 then 0
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int h.hcount))) in
    let rec go b seen =
      if b >= bucket_count then h.hmax
      else begin
        let seen = seen + h.buckets.(b) in
        if seen >= rank then min h.hmax (bucket_upper b) else go (b + 1) seen
      end
    in
    go 0 0
  end

let merge ~into src =
  into.hcount <- into.hcount + src.hcount;
  into.hsum <- into.hsum + src.hsum;
  if src.hmin < into.hmin then into.hmin <- src.hmin;
  if src.hmax > into.hmax then into.hmax <- src.hmax;
  Array.iteri (fun b n -> into.buckets.(b) <- into.buckets.(b) + n) src.buckets

let summary h =
  {
    count = h.hcount;
    sum = h.hsum;
    min = (if h.hcount = 0 then 0 else h.hmin);
    max = (if h.hcount = 0 then 0 else h.hmax);
    mean =
      (if h.hcount = 0 then 0.
       else float_of_int h.hsum /. float_of_int h.hcount);
  }

let find t n = Hashtbl.find_opt t.tbl n

let to_list t =
  Hashtbl.fold (fun n i acc -> (n, i) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let reset t =
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> c.v <- 0
      | Histogram h ->
          h.hcount <- 0;
          h.hsum <- 0;
          h.hmin <- max_int;
          h.hmax <- min_int;
          Array.fill h.buckets 0 bucket_count 0)
    t.tbl
