type domain = Sanctorum_hw.Trap.domain
type state = Available | Offered of domain | Owned of domain | Blocked of domain
type kind = Core_resource | Memory_resource
type t = { cores : state array; memory : state array; mutable version : int }

let untrusted = Sanctorum_hw.Trap.domain_untrusted

let create ~cores ~memory_units =
  {
    cores = Array.make cores (Owned untrusted);
    memory = Array.make memory_units (Owned untrusted);
    version = 0;
  }

let table t = function Core_resource -> t.cores | Memory_resource -> t.memory
let count t kind = Array.length (table t kind)
let version t = t.version

(* The one write path: every mutator sets a state here. *)
let set t kind ~rid s =
  (table t kind).(rid) <- s;
  t.version <- t.version + 1

let state t kind ~rid =
  let arr = table t kind in
  if rid < 0 || rid >= Array.length arr then
    Error (Api_error.Illegal_argument "resource id out of range")
  else Ok arr.(rid)

let get t kind ~rid = (table t kind).(rid)

let owner t kind ~rid =
  match state t kind ~rid with
  | Ok (Owned d | Blocked d | Offered d) -> Some d
  | Ok Available | Error _ -> None

let force_owner t kind ~rid d = set t kind ~rid (Owned d)

let block t kind ~rid ~by =
  match state t kind ~rid with
  | Error e -> Error e
  | Ok (Owned d) when d = by || by = Sanctorum_hw.Trap.domain_sm ->
      set t kind ~rid (Blocked d);
      Ok ()
  | Ok (Owned _) -> Error Api_error.Unauthorized
  | Ok (Blocked _ | Available | Offered _) ->
      Error (Api_error.Invalid_state "block: resource is not owned")

let clean t kind ~rid =
  match state t kind ~rid with
  | Error e -> Error e
  | Ok (Blocked d) ->
      set t kind ~rid Available;
      Ok d
  | Ok (Owned _ | Available | Offered _) ->
      Error (Api_error.Invalid_state "clean: resource is not blocked")

let grant t kind ~rid ~to_ ~auto_accept =
  match state t kind ~rid with
  | Error e -> Error e
  | Ok Available ->
      set t kind ~rid
        (if auto_accept || to_ = untrusted then Owned to_ else Offered to_);
      Ok ()
  | Ok (Owned _ | Blocked _ | Offered _) ->
      Error (Api_error.Invalid_state "grant: resource is not available")

let accept t kind ~rid ~by =
  match state t kind ~rid with
  | Error e -> Error e
  | Ok (Offered d) when d = by ->
      set t kind ~rid (Owned d);
      Ok ()
  | Ok (Offered _) -> Error Api_error.Unauthorized
  | Ok (Owned _ | Blocked _ | Available) ->
      Error (Api_error.Invalid_state "accept: resource was not offered")

let units_owned_by t kind d =
  let arr = table t kind in
  let acc = ref [] in
  for rid = Array.length arr - 1 downto 0 do
    match arr.(rid) with
    | Owned d' when d' = d -> acc := rid :: !acc
    | Owned _ | Blocked _ | Available | Offered _ -> ()
  done;
  !acc

let pp_state ppf = function
  | Available -> Format.pp_print_string ppf "available"
  | Offered d -> Format.fprintf ppf "offered(%d)" d
  | Owned d -> Format.fprintf ppf "owned(%d)" d
  | Blocked d -> Format.fprintf ppf "blocked(%d)" d
