(* Feeds one event stream to [Sim.Monitor] and to its reference twin
   [Monitor_ref], and names the first report in which they differ.  The
   library monitor takes RCC steps on its counting path ([feed_rcc]) for
   odd sequence numbers and through [feed] for even ones, so both paths
   are compared with the reference. *)

type report = {
  violations : Sim.Monitor.violation list;
  coverage : string list;
  timelines : Sim.Monitor.timeline list;
  events_seen : int;
  raised : Sim.Monitor.violation option;  (** the [~fail_fast] exception *)
}

let collect ~feed ~finish =
  match
    feed ();
    finish ()
  with
  | () -> None
  | exception Sim.Monitor.Violation v -> Some v

let run_lib ?context ?decode_channel ~fail_fast events =
  let m = Sim.Monitor.create ?context ?decode_channel ~fail_fast () in
  let raised =
    collect
      ~feed:(fun () ->
        List.iter
          (fun (time, ev) ->
            match ev with
            | Sim.Event.Rcc { op; seq; _ } when seq land 1 = 1 ->
              Sim.Monitor.feed_rcc m op
            | _ -> Sim.Monitor.feed m ~time ev)
          events)
      ~finish:(fun () -> Sim.Monitor.finish m)
  in
  {
    violations = Sim.Monitor.violations m;
    coverage = Sim.Monitor.coverage m;
    timelines = Sim.Monitor.timelines m;
    events_seen = Sim.Monitor.events_seen m;
    raised;
  }

let run_ref ?context ?decode_channel ~fail_fast events =
  let m = Monitor_ref.create ?context ?decode_channel ~fail_fast () in
  let raised =
    collect
      ~feed:(fun () ->
        List.iter (fun (time, ev) -> Monitor_ref.feed m ~time ev) events)
      ~finish:(fun () -> Monitor_ref.finish m)
  in
  {
    violations = Monitor_ref.violations m;
    coverage = Monitor_ref.coverage m;
    timelines = Monitor_ref.timelines m;
    events_seen = Monitor_ref.events_seen m;
    raised;
  }

(* [None] when both monitors report the same; otherwise the first field
   that differs. *)
let compare ?context ?decode_channel ?(fail_fast = false) events =
  let lib = run_lib ?context ?decode_channel ~fail_fast events
  and rf = run_ref ?context ?decode_channel ~fail_fast events in
  if lib.violations <> rf.violations then Some "violations"
  else if lib.coverage <> rf.coverage then Some "coverage"
  else if lib.timelines <> rf.timelines then Some "timelines"
  else if lib.events_seen <> rf.events_seen then Some "events_seen"
  else if lib.raised <> rf.raised then Some "fail-fast violation"
  else None
