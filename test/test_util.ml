module Util = Sanctorum_util

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_hex_roundtrip () =
  check "encode" "00ff10" (Util.Hex.encode "\x00\xff\x10");
  check "decode" "\x00\xff\x10" (Util.Hex.decode "00ff10");
  check "decode upper" "\xab\xcd" (Util.Hex.decode "ABCD");
  Alcotest.check_raises "odd length" (Invalid_argument "Hex.decode: odd length")
    (fun () -> ignore (Util.Hex.decode "abc"));
  Alcotest.check_raises "bad char"
    (Invalid_argument "Hex.decode: non-hex character") (fun () ->
      ignore (Util.Hex.decode "zz"))

let test_bits () =
  check_bool "pow2 1" true (Util.Bits.is_power_of_two 1);
  check_bool "pow2 4096" true (Util.Bits.is_power_of_two 4096);
  check_bool "pow2 12" false (Util.Bits.is_power_of_two 12);
  check_bool "pow2 0" false (Util.Bits.is_power_of_two 0);
  check_int "log2" 12 (Util.Bits.log2 4096);
  check_int "align_up" 8192 (Util.Bits.align_up 4097 4096);
  check_int "align_up exact" 4096 (Util.Bits.align_up 4096 4096);
  check_int "align_down" 4096 (Util.Bits.align_down 8191 4096);
  check_int "extract" 0b101 (Util.Bits.extract 0b10100 ~lo:2 ~width:3);
  check_int "sign_extend neg" (-1) (Util.Bits.sign_extend 0xfff ~width:12);
  check_int "sign_extend pos" 2047 (Util.Bits.sign_extend 0x7ff ~width:12)

let test_bytesx () =
  check "xor" "\x03\x01" (Util.Bytesx.xor "\x01\x02" "\x02\x03");
  check_bool "cte eq" true (Util.Bytesx.constant_time_equal "abc" "abc");
  check_bool "cte neq" false (Util.Bytesx.constant_time_equal "abc" "abd");
  check_bool "cte len" false (Util.Bytesx.constant_time_equal "abc" "abcd");
  Alcotest.(check int64)
    "u64 roundtrip" 0x1122334455667788L
    (Util.Bytesx.get_u64_le (Util.Bytesx.of_int64_le 0x1122334455667788L) 0)

(* The shared splitmix64 stream is pinned by the reference vectors for
   seed 0 (Steele, Lea & Flood 2014; same values as the JDK's
   SplittableRandom and the xoshiro seeding recipe). Every replayable
   schedule in the tree — fault injection, workload decisions, fleet
   placement — derives from this stream, so changing it silently would
   invalidate every recorded seed. *)
let test_splitmix_kat () =
  let check64 = Alcotest.(check int64) in
  let r = Util.Splitmix.create ~seed:0L in
  check64 "kat[0]" 0xE220A8397B1DCDAFL (Util.Splitmix.next r);
  check64 "kat[1]" 0x6E789E6AA1B965F4L (Util.Splitmix.next r);
  check64 "kat[2]" 0x06C45D188009454FL (Util.Splitmix.next r);
  (* string seeding is deterministic, distinct per string, and feeds
     the same stream *)
  let a = Util.Splitmix.of_string "fleet/shard-0" in
  let a' = Util.Splitmix.of_string "fleet/shard-0" in
  let b = Util.Splitmix.of_string "fleet/shard-1" in
  let na = Util.Splitmix.next a in
  check64 "of_string replays" na (Util.Splitmix.next a');
  check_bool "of_string separates" true (na <> Util.Splitmix.next b);
  (* a copy forks an independent stream from the same state *)
  let c = Util.Splitmix.copy a in
  check64 "copy continues" (Util.Splitmix.next a) (Util.Splitmix.next c)

let test_splitmix_int () =
  let r = Util.Splitmix.create ~seed:42L in
  for _ = 1 to 1000 do
    let v = Util.Splitmix.int r ~bound:7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done;
  let r = Util.Splitmix.create ~seed:1L in
  check_int "bound 1 is constant" 0 (Util.Splitmix.int r ~bound:1);
  check_bool "bound must be positive"
    true
    (match Util.Splitmix.int r ~bound:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qcheck_hex_roundtrip =
  QCheck2.Test.make ~name:"hex roundtrip" ~count:200 QCheck2.Gen.string
    (fun s -> Util.Hex.decode (Util.Hex.encode s) = s)

let suite =
  ( "util",
    [
      Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
      Alcotest.test_case "bit helpers" `Quick test_bits;
      Alcotest.test_case "byte helpers" `Quick test_bytesx;
      Alcotest.test_case "splitmix64 known answers" `Quick test_splitmix_kat;
      Alcotest.test_case "splitmix64 bounded draw" `Quick test_splitmix_int;
      QCheck_alcotest.to_alcotest qcheck_hex_roundtrip;
    ] )
