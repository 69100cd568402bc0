type sender = From_os | From_enclave of int

type slot_state =
  | Unaccepted
  | Empty of sender  (** accepted, waiting for this sender *)
  | Full of sender * string * string  (** sender, measurement, message *)

type t = {
  slots : slot_state array;
  mutable deposited : int;
  mutable retrieved : int;
  mutable rejected : int;
}

let message_size = 256

let create ~slots =
  if slots <= 0 then invalid_arg "Mailbox.create: slots must be positive";
  { slots = Array.make slots Unaccepted; deposited = 0; retrieved = 0; rejected = 0 }

let equal_sender a b =
  match (a, b) with
  | From_os, From_os -> true
  | From_enclave x, From_enclave y -> x = y
  | (From_os | From_enclave _), _ -> false

let find_slot t ~sender =
  let found = ref None in
  Array.iteri
    (fun i s ->
      match s with
      | (Empty who | Full (who, _, _)) when equal_sender who sender ->
          if !found = None then found := Some i
      | Empty _ | Full _ | Unaccepted -> ())
    t.slots;
  !found

let accept t ~sender =
  match find_slot t ~sender with
  | Some i ->
      (* Re-accepting resets the slot (the recipient discards any
         pending message from this sender). *)
      t.slots.(i) <- Empty sender;
      Ok ()
  | None -> begin
      let free = ref None in
      Array.iteri
        (fun i s -> if s = Unaccepted && !free = None then free := Some i)
        t.slots;
      match !free with
      | Some i ->
          t.slots.(i) <- Empty sender;
          Ok ()
      | None -> Error (Api_error.Out_of_resources "no free mailbox slot")
    end

let deposit t ~sender ~sender_measurement ~msg =
  if String.length msg > message_size then begin
    t.rejected <- t.rejected + 1;
    Error (Api_error.Illegal_argument "message too large")
  end
  else begin
    let msg = msg ^ String.make (message_size - String.length msg) '\000' in
    match find_slot t ~sender with
    | None ->
        t.rejected <- t.rejected + 1;
        Error (Api_error.Invalid_state "recipient has not accepted this sender")
    | Some i -> begin
        match t.slots.(i) with
        | Empty _ ->
            t.slots.(i) <- Full (sender, sender_measurement, msg);
            t.deposited <- t.deposited + 1;
            Ok ()
        | Full _ ->
            t.rejected <- t.rejected + 1;
            Error (Api_error.Invalid_state "mailbox is full")
        | Unaccepted -> assert false
      end
  end

let retrieve t ~sender =
  match find_slot t ~sender with
  | None -> Error (Api_error.Invalid_state "no mailbox for this sender")
  | Some i -> begin
      match t.slots.(i) with
      | Full (_, meas, msg) ->
          t.slots.(i) <- Unaccepted;
          t.retrieved <- t.retrieved + 1;
          Ok (msg, meas)
      | Empty _ -> Error (Api_error.Invalid_state "mailbox is empty")
      | Unaccepted -> assert false
    end

let wipe t = Array.fill t.slots 0 (Array.length t.slots) Unaccepted

let snapshot t =
  Array.to_list t.slots
  |> List.filter_map (function
       | Unaccepted -> None
       | Empty who -> Some (who, false)
       | Full (who, _, _) -> Some (who, true))

let stats t = (t.deposited, t.retrieved, t.rejected)
