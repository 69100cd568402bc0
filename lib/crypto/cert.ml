type t = {
  subject : string;
  subject_key : Schnorr.public_key;
  bound_measurement : string option;
  issuer : string;
  signature : string;
}

(* Length-prefixed field encoding; deterministic, so it can double as
   the to-be-signed representation. *)
let field s =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length s));
  Bytes.unsafe_to_string b ^ s

(* The field at [off] and the offset after it: [`Length] when no
   length prefix fits, [`Body] when the body overruns [s]. *)
let frame_at s off =
  if off + 4 > String.length s then Error `Length
  else begin
    let len = Int32.to_int (String.get_int32_le s off) in
    if len < 0 || off + 4 + len > String.length s then Error `Body
    else Ok (String.sub s (off + 4) len, off + 4 + len)
  end

let read_field s off =
  match frame_at s off with
  | Ok _ as r -> r
  | Error `Length -> Error "Cert: truncated length"
  | Error `Body -> Error "Cert: truncated field"

let to_be_signed t =
  field t.subject
  ^ field (Schnorr.public_key_to_bytes t.subject_key)
  ^ field (match t.bound_measurement with None -> "" | Some m -> m)
  ^ field t.issuer

let issue ~issuer ~issuer_key ~subject ~subject_key ?bound_measurement () =
  let unsigned =
    { subject; subject_key; bound_measurement; issuer; signature = "" }
  in
  { unsigned with signature = Schnorr.sign issuer_key (to_be_signed unsigned) }

let signature_claims ~root certs =
  let rec go key acc = function
    | [] -> Ok (List.rev acc, key)
    | c :: rest ->
        go c.subject_key ((key, to_be_signed c, c.signature) :: acc) rest
  in
  match certs with [] -> Error "Cert: empty chain" | _ -> go root [] certs

let serialize t = to_be_signed t ^ field t.signature

let ( let* ) = Result.bind

let deserialize s =
  let* subject, off = read_field s 0 in
  let* key_bytes, off = read_field s off in
  let* meas, off = read_field s off in
  let* issuer, off = read_field s off in
  let* signature, off = read_field s off in
  if off <> String.length s then Error "Cert: trailing bytes"
  else begin
    let* subject_key = Schnorr.public_key_of_bytes key_bytes in
    Ok
      {
        subject;
        subject_key;
        bound_measurement = (if meas = "" then None else Some meas);
        issuer;
        signature;
      }
  end

(* A chain frames each certificate like a field. *)
let serialize_chain certs =
  String.concat "" (List.map (fun c -> field (serialize c)) certs)

let parse_chain blob =
  let rec go off acc =
    if off = String.length blob then Ok (List.rev acc)
    else
      match frame_at blob off with
      | Error `Length -> Error "truncated certificate chain"
      | Error `Body -> Error "truncated certificate"
      | Ok (s, off) ->
          let* c = deserialize s in
          go off (c :: acc)
  in
  go 0 []
