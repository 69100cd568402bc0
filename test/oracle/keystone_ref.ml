(* The Keystone PMP layout as the platform once wrote it into every core
   at every grant that changed an owner and at every domain switch:
   built through lists, then written over whatever the core held. The
   platform now rewrites a core's entries on the core's first check
   after its domain or the owner map moved; the differential property
   holds those entries equal to what [program] writes for the core's
   domain under the current map. *)
module Hw = Sanctorum_hw
module Owner_map = Sanctorum_platform.Owner_map

(* The domain's ranges as allows, then every other enclave's as
   denies, cut to the entries between the monitor's entry 0 and the
   background allow; [true] when some range did not fit. *)
let layout owners ~background domain =
  let allows = ref [] and denies = ref [] in
  Owner_map.iter_ranges owners (fun ~lo ~hi ~domain:d ->
      if d <> Hw.Trap.domain_sm && d <> Hw.Trap.domain_untrusted then
        if d = domain then allows := (lo, hi, true) :: !allows
        else denies := (lo, hi, false) :: !denies);
  let entries = List.rev !allows @ List.rev !denies in
  let fit = List.filteri (fun i _ -> i < background - 1) entries in
  (Array.of_list fit, List.length entries >= background)

(* Entries 1 to the last of [pmp] for [domain]; the background allow
   covers [mem_bytes] and is cleared on overflow. *)
let program owners ~mem_bytes pmp domain =
  let background = Hw.Pmp.count pmp - 1 in
  let entries, overflow = layout owners ~background domain in
  Array.iteri
    (fun i (lo, hi, allow) ->
      Hw.Pmp.set_entry pmp ~index:(i + 1) ~lo ~hi ~r:allow ~w:allow ~x:allow
        ~locked:false)
    entries;
  for i = Array.length entries + 1 to background - 1 do
    Hw.Pmp.clear_entry pmp ~index:i
  done;
  if overflow then Hw.Pmp.clear_entry pmp ~index:background
  else
    Hw.Pmp.set_entry pmp ~index:background ~lo:0 ~hi:mem_bytes ~r:true ~w:true
      ~x:true ~locked:false
