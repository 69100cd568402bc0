(* The fold [Sanctorum.Sm.running_thread] replaced: every thread's
   phase, scanned for the one running on [core]. It reads the thread
   table whatever the core's domain says, so it answers alike in a
   state where the monitor's search, which looks only among the
   threads of the enclave whose domain the core is in, would miss a
   thread; the catalog's thread.lifecycle rule flags such a state. *)
let running_thread sm ~core =
  List.find_opt
    (fun tid ->
      match Sanctorum.Sm.thread_info sm ~tid with
      | Some { Sanctorum.Sm.i_phase = `Running c; _ } -> c = core
      | Some _ | None -> false)
    (Sanctorum.Sm.thread_ids sm)
