module Crypto = Sanctorum_crypto

(* The context records the transcript (tag headers and content strings,
   in order) instead of absorbing eagerly. Finalize either hashes the
   parts — multi-chunk, so page contents are absorbed in place with no
   throwaway per-page concatenation — or, through a cache, skips the
   SHA3 sweep entirely when the exact transcript has been measured
   before (measure once, bind many). *)

type t = { mutable parts : string list; mutable finalized : bool }

module Cache = struct
  (* Keyed by the full transcript bytes: a hit requires structural
     string equality, so two different images can never alias — the
     invalidation story is simply "any differing byte is a different
     key". Bounded by wholesale flush; the working set of a churn-style
     workload (a few hundred distinct images) fits comfortably. *)
  type cache = {
    tbl : (string, string) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
  }

  let capacity = 512
  let create () = { tbl = Hashtbl.create 64; hits = 0; misses = 0 }

  let hits c = c.hits
  let misses c = c.misses
end

let size = 32
let start () = { parts = []; finalized = false }

let push t s = t.parts <- s :: t.parts

let u64 v = Sanctorum_util.Bytesx.of_int64_le v
let int v = u64 (Int64.of_int v)

let extend_create t ~evbase ~evsize ~mailbox_count =
  push t ("enclave-create" ^ int evbase ^ int evsize ^ int mailbox_count)

let extend_page_table t ~vaddr ~level =
  push t ("enclave-page-table" ^ int vaddr ^ int level)

let extend_page t ~vaddr ~r ~w ~x ~contents =
  let flag b = if b then "1" else "0" in
  push t ("enclave-page" ^ int vaddr ^ flag r ^ flag w ^ flag x);
  push t contents

let extend_shared t ~vaddr ~len =
  push t ("enclave-shared" ^ int vaddr ^ int len)

let extend_thread t ~entry_pc ~entry_sp =
  push t ("enclave-thread" ^ u64 entry_pc ^ u64 entry_sp)

let digest parts =
  let ctx = Crypto.Sha3.init_sha3_256 () in
  List.iter (Crypto.Sha3.absorb ctx) parts;
  Crypto.Sha3.finalize ctx ~len:size

let finalize ?cache t =
  if t.finalized then invalid_arg "Measurement.finalize: already finalized";
  t.finalized <- true;
  let parts = List.rev t.parts in
  t.parts <- [];
  match cache with
  | None -> digest parts
  | Some c -> begin
      let key = String.concat "" parts in
      match Hashtbl.find_opt c.Cache.tbl key with
      | Some d ->
          c.Cache.hits <- c.Cache.hits + 1;
          d
      | None ->
          c.Cache.misses <- c.Cache.misses + 1;
          let d = Crypto.Sha3.sha3_256 key in
          if Hashtbl.length c.Cache.tbl >= Cache.capacity then
            Hashtbl.reset c.Cache.tbl;
          Hashtbl.add c.Cache.tbl key d;
          d
    end
