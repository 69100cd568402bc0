(* A boxed, table-driven Keccak-f[1600] sponge, kept as the differential
   oracle for Sha3 ("sha3: unboxed kernel = reference sponge" in
   test_crypto.ml). Lanes live in an [int64 array] and the rho and pi
   steps walk the FIPS 202 tables below, so it shares no round code with
   the straight-line kernel under test. *)

let rotl64 x n =
  if n = 0 then x
  else Int64.logor (Int64.shift_left x n) (Int64.shift_right_logical x (64 - n))

let round_constants =
  [| 0x0000000000000001L; 0x0000000000008082L; 0x800000000000808AL;
     0x8000000080008000L; 0x000000000000808BL; 0x0000000080000001L;
     0x8000000080008081L; 0x8000000000008009L; 0x000000000000008AL;
     0x0000000000000088L; 0x0000000080008009L; 0x000000008000000AL;
     0x000000008000808BL; 0x800000000000008BL; 0x8000000000008089L;
     0x8000000000008003L; 0x8000000000008002L; 0x8000000000000080L;
     0x000000000000800AL; 0x800000008000000AL; 0x8000000080008081L;
     0x8000000000008080L; 0x0000000080000001L; 0x8000000080008008L |]

let rotation_offsets =
  [| 1; 3; 6; 10; 15; 21; 28; 36; 45; 55; 2; 14; 27; 41; 56; 8; 25; 43; 62;
     18; 39; 61; 20; 44 |]

let pi_lane =
  [| 10; 7; 11; 17; 18; 3; 5; 16; 8; 21; 24; 4; 15; 23; 19; 13; 12; 2; 20;
     14; 22; 9; 6; 1 |]

let keccak_f (st : int64 array) =
  let bc = Array.make 5 0L in
  for round = 0 to 23 do
    (* theta *)
    for i = 0 to 4 do
      bc.(i) <-
        Int64.logxor st.(i)
          (Int64.logxor st.(i + 5)
             (Int64.logxor st.(i + 10) (Int64.logxor st.(i + 15) st.(i + 20))))
    done;
    for i = 0 to 4 do
      let t =
        Int64.logxor bc.((i + 4) mod 5)
          (rotl64 bc.((i + 1) mod 5) 1)
      in
      for j = 0 to 4 do
        st.((5 * j) + i) <- Int64.logxor st.((5 * j) + i) t
      done
    done;
    (* rho + pi *)
    let t = ref st.(1) in
    for i = 0 to 23 do
      let j = pi_lane.(i) in
      let saved = st.(j) in
      st.(j) <- rotl64 !t rotation_offsets.(i);
      t := saved
    done;
    (* chi *)
    for j = 0 to 4 do
      for i = 0 to 4 do
        bc.(i) <- st.((5 * j) + i)
      done;
      for i = 0 to 4 do
        st.((5 * j) + i) <-
          Int64.logxor bc.(i)
            (Int64.logand (Int64.lognot bc.((i + 1) mod 5)) bc.((i + 2) mod 5))
      done
    done;
    (* iota *)
    st.(0) <- Int64.logxor st.(0) round_constants.(round)
  done

type variant = Sha3 of int (* digest length *) | Shake

type t = {
  state : int64 array;
  rate : int; (* bytes absorbed per block *)
  variant : variant;
  mutable pos : int; (* byte offset within the current block *)
  mutable finalized : bool;
}

let create ~rate ~variant =
  { state = Array.make 25 0L; rate; variant; pos = 0; finalized = false }

let init_sha3_256 () = create ~rate:136 ~variant:(Sha3 32)
let init_sha3_512 () = create ~rate:72 ~variant:(Sha3 64)
let init_shake128 () = create ~rate:168 ~variant:Shake
let init_shake256 () = create ~rate:136 ~variant:Shake

let xor_byte_into_state st idx byte =
  let lane = idx / 8 and shift = 8 * (idx mod 8) in
  st.(lane) <-
    Int64.logxor st.(lane) (Int64.shift_left (Int64.of_int byte) shift)

let state_byte st idx =
  let lane = idx / 8 and shift = 8 * (idx mod 8) in
  Int64.to_int (Int64.shift_right_logical st.(lane) shift) land 0xff

let absorb_byte t byte =
  xor_byte_into_state t.state t.pos byte;
  t.pos <- t.pos + 1;
  if t.pos = t.rate then begin
    keccak_f t.state;
    t.pos <- 0
  end

(* Absorbing dominates the measurement hot path, so whole 64-bit lanes
   are XORed in at once whenever the sponge position is lane-aligned
   (every supported rate is a multiple of 8, so alignment persists).
   Stray leading/trailing bytes fall back to the byte-at-a-time path. *)
let absorb t data =
  if t.finalized then invalid_arg "Sha3.absorb: context already finalized";
  let n = String.length data in
  let i = ref 0 in
  while !i < n && t.pos land 7 <> 0 do
    absorb_byte t (Char.code (String.unsafe_get data !i));
    incr i
  done;
  while n - !i >= 8 do
    let lane = t.pos lsr 3 in
    t.state.(lane) <- Int64.logxor t.state.(lane) (String.get_int64_le data !i);
    t.pos <- t.pos + 8;
    i := !i + 8;
    if t.pos = t.rate then begin
      keccak_f t.state;
      t.pos <- 0
    end
  done;
  while !i < n do
    absorb_byte t (Char.code (String.unsafe_get data !i));
    incr i
  done

let finalize t ~len =
  if t.finalized then invalid_arg "Sha3.finalize: context already finalized";
  (match t.variant with
  | Sha3 d ->
      if len <> d then
        invalid_arg
          (Printf.sprintf "Sha3.finalize: SHA3 digest is %d bytes, not %d" d
             len)
  | Shake -> if len <= 0 then invalid_arg "Sha3.finalize: len must be > 0");
  t.finalized <- true;
  let domain = match t.variant with Sha3 _ -> 0x06 | Shake -> 0x1f in
  xor_byte_into_state t.state t.pos domain;
  xor_byte_into_state t.state (t.rate - 1) 0x80;
  keccak_f t.state;
  let out = Bytes.create len in
  let pos = ref 0 in
  for i = 0 to len - 1 do
    if !pos = t.rate then begin
      keccak_f t.state;
      pos := 0
    end;
    Bytes.set out i (Char.chr (state_byte t.state !pos));
    incr pos
  done;
  Bytes.unsafe_to_string out

let one_shot init len data =
  let t = init () in
  absorb t data;
  finalize t ~len

let sha3_256 data = one_shot init_sha3_256 32 data
let sha3_512 data = one_shot init_sha3_512 64 data
let shake128 ~len data = one_shot init_shake128 len data
let shake256 ~len data = one_shot init_shake256 len data
