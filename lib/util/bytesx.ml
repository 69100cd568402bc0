let xor a b =
  if String.length a <> String.length b then
    invalid_arg "Bytesx.xor: length mismatch";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let constant_time_equal a b =
  if String.length a <> String.length b then false
  else begin
    let acc = ref 0 in
    for i = 0 to String.length a - 1 do
      acc := !acc lor (Char.code a.[i] lxor Char.code b.[i])
    done;
    !acc = 0
  end

let get_u64_le s off = String.get_int64_le s off

let of_int64_le v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.unsafe_to_string b
