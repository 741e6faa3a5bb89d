type outcome = {
  records : Bcp.Simnet.record list;
  affected : Bcp.Simnet.record list;
  recovered : (Bcp.Simnet.record * float) list;
  unrecovered : Bcp.Simnet.record list;
  rcc_sent : int;
  rcc_delivered : int;
  rcc_dropped : int;
  hb_confirms : int;
  hb_recoveries : int;
  perturbed : int;
  trace : Sim.Trace.t;
  run : Telemetry.run option;
}

let config = function
  | `Oracle -> Bcp.Protocol.default_config
  | `Heartbeat ->
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
    }

let schedule_fault sim (f : Failures.Plan.fault) =
  match f.component with
  | Net.Component.Link l ->
    Bcp.Simnet.fail_link sim ~at:f.fail_at l;
    Option.iter (fun at -> Bcp.Simnet.repair_link sim ~at l) f.repair_at
  | Net.Component.Node v ->
    Bcp.Simnet.fail_node sim ~at:f.fail_at v;
    Option.iter (fun at -> Bcp.Simnet.repair_node sim ~at v) f.repair_at

let run ?obs ?monitor ?(seeds = (0, 0)) ~config ~until ns
    (plan : Failures.Plan.t) =
  let impair_seed, perturb_seed = seeds in
  let sim = Bcp.Simnet.create ~config ~telemetry:(obs <> None) ?monitor ns in
  (* Set-up order fixes event seq numbers: see the contract in the mli. *)
  let sched =
    if Sim.Schedule.is_disabled plan.perturb then None
    else begin
      let s = Sim.Schedule.create ~seed:perturb_seed plan.perturb in
      Sim.Schedule.attach s (Bcp.Simnet.engine sim);
      Some s
    end
  in
  if plan.gray_links <> [] || plan.impair <> Failures.Impair.make () then begin
    let imp = Failures.Impair.create ~seed:impair_seed ~default:plan.impair () in
    (* A gray link is reported up but silently drops every message and
       ack. *)
    let gray = Failures.Impair.make ~gray:true () in
    List.iter
      (fun link -> Failures.Impair.set_link imp ~link gray)
      plan.gray_links;
    Bcp.Simnet.set_impairment sim imp
  end;
  List.iter (schedule_fault sim) plan.faults;
  Bcp.Simnet.run ~until sim;
  Bcp.Simnet.finalize sim;
  let records = Bcp.Simnet.records sim in
  let affected = List.filter (fun r -> not r.Bcp.Node.excluded) records in
  let recovered, unrecovered =
    List.partition_map
      (fun r ->
        match (r.Bcp.Node.resumed_at, r.Bcp.Node.recovered_serial) with
        | Some resumed, Some _ -> Left (r, resumed -. r.Bcp.Node.failure_time)
        | _ -> Right r)
      affected
  in
  let trace = Bcp.Simnet.trace sim in
  {
    records;
    affected;
    recovered;
    unrecovered;
    rcc_sent = Bcp.Simnet.rcc_messages_sent sim;
    rcc_delivered = Bcp.Simnet.control_messages_delivered sim;
    rcc_dropped = Bcp.Simnet.rcc_messages_dropped sim;
    hb_confirms = Bcp.Simnet.heartbeat_confirms sim;
    hb_recoveries = Bcp.Simnet.heartbeat_recoveries sim;
    perturbed = Option.fold ~none:0 ~some:Sim.Schedule.perturbed sched;
    trace;
    run =
      Option.map
        (fun c ->
          ( Bcp.Simnet.metrics sim,
            if Telemetry.keeps_events c then Sim.Trace.events trace else [] ))
        obs;
  }
