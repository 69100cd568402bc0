type decision = Accepted | Rejected of string

type entry = {
  seq : int;
  core : int;
  cycles : int;
  api : string;
  caller : string;
  decision : decision;
  latency : int;
}

let of_events events =
  List.filter_map
    (fun (e : Event.t) ->
      match e.payload with
      | Event.Sm_api { api; caller; outcome; latency } ->
          let decision =
            match outcome with
            | Event.Accepted -> Accepted
            | Event.Rejected err -> Rejected err
          in
          Some
            {
              seq = e.seq;
              core = e.core;
              cycles = e.cycles;
              api;
              caller = Event.principal_name caller;
              decision;
              latency;
            }
      | _ -> None)
    events

let accepted = List.filter (fun e -> e.decision = Accepted)
let rejected = List.filter (fun e -> e.decision <> Accepted)

let pp_entry ppf e =
  let core = if e.core < 0 then "host" else "c" ^ string_of_int e.core in
  let verdict, detail =
    match e.decision with
    | Accepted -> ("accept", "")
    | Rejected err -> ("REJECT", " — " ^ err)
  in
  Format.fprintf ppf "%8d %6s %-22s %-16s %s%s" e.cycles core e.api e.caller
    verdict detail

let pp ppf entries =
  Format.fprintf ppf "== SM audit log (%d decisions) ==@." (List.length entries);
  Format.fprintf ppf "%8s %6s %-22s %-16s %s@." "cycles" "core" "api" "caller"
    "decision";
  List.iter (fun e -> Format.fprintf ppf "%a@." pp_entry e) entries;
  Format.fprintf ppf "accepted %d, rejected %d@."
    (List.length (accepted entries))
    (List.length (rejected entries))
