type t = { mutable v : string; mutable counter : int64 }

let create ~seed =
  { v = Sha3.sha3_256 ("sanctorum-drbg-init" ^ seed); counter = 0L }

let random_bytes t n =
  if n < 0 then invalid_arg "Drbg.random_bytes: negative length";
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    Buffer.add_string buf
      (Sha3.sha3_256 (t.v ^ Sanctorum_util.Bytesx.of_int64_le t.counter));
    t.counter <- Int64.add t.counter 1L
  done;
  (* Ratchet so earlier outputs cannot be recomputed from a captured
     state. *)
  t.v <- Sha3.sha3_256 ("sanctorum-drbg-ratchet" ^ t.v);
  Buffer.sub buf 0 n

let random_scalar t ~m =
  let len = (Bignum.bit_length m + 7) / 8 in
  let rec draw () =
    let x = Bignum.of_bytes_be (random_bytes t len) in
    if Bignum.is_zero x || Bignum.compare x m >= 0 then draw () else x
  in
  draw ()
