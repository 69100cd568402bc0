(* Multicore scheduling: three enclaves time-sliced by the OS across
   the machine's cores, with AEX on every preemption and a malicious
   neighbour probing memory the whole time.

     dune exec examples/multicore_enclaves.exe
*)
module Hw = Sanctorum_hw
open Sanctorum_os

let () =
  let tb = Testbed.create ~cores:4 () in
  let os = tb.Testbed.os in
  (* Each worker counts up to [target], persisting progress in its data
     page so work survives AEX (the enclave reloads the counter on
     entry). *)
  let workers =
    List.map
      (fun (evbase, target) ->
        let inst =
          Result.get_ok
            (Os.install_enclave os (Testbed.counting_image ~evbase ~target))
        in
        (inst.Os.eid, List.hd inst.Os.tids, target, ref false))
      [ (0x10000, 400); (0x40000, 700); (0x80000, 1000) ]
  in
  Printf.printf "3 worker enclaves installed; scheduling with a 300-cycle quantum\n";
  let round = ref 0 in
  let all_done () = List.for_all (fun (_, _, _, d) -> !d) workers in
  while (not (all_done ())) && !round < 100 do
    incr round;
    List.iteri
      (fun i (eid, tid, _, done_flag) ->
        if not !done_flag then begin
          let core = i mod 3 in
          match
            Os.run_enclave os ~eid ~tid ~core ~fuel:100000 ~quantum:300 ()
          with
          | Ok Os.Exited -> done_flag := true
          | Ok Os.Preempted -> () (* AEX; rescheduled next round *)
          | Ok _ | Error _ -> done_flag := true
        end)
      workers
  done;
  Printf.printf "all workers finished after %d scheduling rounds\n" !round;
  (* verify each worker's counter through the monitor's view *)
  List.iter
    (fun (eid, _, target, _) ->
      let paddrs = Sanctorum_attack.Malicious_os.enclave_paddrs os ~eid in
      let data = List.nth paddrs 4 in
      let v = Hw.Phys_mem.read_u64 (Hw.Machine.mem tb.Testbed.machine) data in
      Printf.printf "  enclave 0x%x: counted %Ld (target %d) %s\n" eid v target
        (if v = Int64.of_int target then "ok" else "WRONG"))
    workers;
  (* the whole time, core 3 was free for the OS to be evil on *)
  let victim_eid = match workers with (e, _, _, _) :: _ -> e | [] -> 0 in
  let paddr =
    List.hd (Sanctorum_attack.Malicious_os.enclave_paddrs os ~eid:victim_eid)
  in
  match Sanctorum_attack.Malicious_os.os_load os ~core:3 ~paddr with
  | Sanctorum_attack.Malicious_os.Denied ->
      Printf.printf "concurrent OS probe from core 3: denied\n"
  | Sanctorum_attack.Malicious_os.Leaked _ ->
      Printf.printf "concurrent OS probe from core 3: LEAKED - bug!\n"
