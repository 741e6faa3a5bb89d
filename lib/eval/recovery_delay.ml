type stats = {
  scheme : Bcp.Protocol.scheme;
  scenarios : int;
  samples : int;
  unrecovered : int;
  mean : float;
  p50 : float;
  p99 : float;
  max : float;
  mean_bound : float;
  within_bound_pct : float;
  rcc_sent : int;
}

let scheme_label = function
  | Bcp.Protocol.Scheme1 -> "Scheme 1 (dst-initiated)"
  | Bcp.Protocol.Scheme2 -> "Scheme 2 (src-initiated)"
  | Bcp.Protocol.Scheme3 -> "Scheme 3 (hybrid)"

let conn_bound ns conn d_max =
  match Bcp.Netstate.find ns conn with
  | None -> None
  | Some c ->
    let hops_of p = Net.Path.hops p in
    let k =
      List.fold_left
        (fun m b -> max m (hops_of b.Bcp.Dconn.path))
        (hops_of c.Bcp.Dconn.primary.Rtchan.Channel.path)
        c.Bcp.Dconn.backups
    in
    let b = max 1 (List.length c.Bcp.Dconn.backups) in
    Some (Rcc.Bounds.recovery_delay_bound ~k ~backups:b ~d_max)

type phase_stats = { samples : int; p50 : float; p95 : float; max : float }

type phases = {
  detect : phase_stats;
  report : phase_stats;
  activate : phase_stats;
  switch : phase_stats;
}

let phase_of snapshot name =
  match
    List.find_opt (fun (n, labels, _) -> n = name && labels = []) snapshot
  with
  | Some (_, _, Sim.Metrics.Timer_v ts) ->
    {
      samples = ts.Sim.Metrics.observed;
      p50 = ts.Sim.Metrics.p50;
      p95 = ts.Sim.Metrics.p95;
      max = ts.Sim.Metrics.vmax;
    }
  | _ -> { samples = 0; p50 = 0.0; p95 = 0.0; max = 0.0 }

let phases_of_snapshot snapshot =
  {
    detect = phase_of snapshot "phase.detect";
    report = phase_of snapshot "phase.report";
    activate = phase_of snapshot "phase.activate";
    switch = phase_of snapshot "phase.switch";
  }

let measure_with ~config ?obs ?(seed = 11) ?(scenario_count = 16)
    ?(node_failures = true) ns =
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create seed in
  let links =
    Sim.Prng.sample_without_replacement rng scenario_count
      (Net.Topology.num_links topo)
  in
  let nodes =
    if node_failures then
      Sim.Prng.sample_without_replacement rng
        (max 1 (scenario_count / 4))
        (Net.Topology.num_nodes topo)
    else []
  in
  let scenarios =
    List.map (fun l -> Failures.Scenario.single_link topo l) links
    @ List.map (fun v -> Failures.Scenario.single_node topo v) nodes
  in
  let delays = Sim.Stats.Sample.create () in
  let bounds = Sim.Stats.Running.create () in
  let within = ref 0 and samples = ref 0 and unrecovered = ref 0 in
  let rcc_sent = ref 0 in
  let t_fail = 0.01 in
  (* Each scenario runs its own event-driven simulation against the
     (read-only) established netstate, so the sweep maps over the domain
     pool; merging the per-scenario observations in scenario order makes
     the statistics byte-identical to the sequential sweep. *)
  let observe sc =
    let sim = Bcp.Simnet.create ~config ~telemetry:(obs <> None) ns in
    Bcp.Simnet.inject sim ~at:t_fail sc;
    (* Stop before the rejoin timers tear anything down. *)
    Bcp.Simnet.run ~until:(t_fail +. (0.5 *. config.Bcp.Protocol.rejoin_timeout)) sim;
    Bcp.Simnet.finalize sim;
    let events =
      List.filter_map
        (fun r ->
          if r.Bcp.Node.excluded then None
          else
            match (r.Bcp.Node.resumed_at, r.Bcp.Node.recovered_serial) with
            | Some resumed, Some _ ->
              let from_detection =
                resumed -. r.Bcp.Node.failure_time
                -. config.Bcp.Protocol.detection_latency
              in
              let from_detection = Float.max 0.0 from_detection in
              Some
                (`Recovered
                  ( from_detection,
                    conn_bound ns r.Bcp.Node.conn
                      config.Bcp.Protocol.rcc.Rcc.Transport.d_max ))
            | _ -> Some `Unrecovered)
        (Bcp.Simnet.records sim)
    in
    (Bcp.Simnet.rcc_messages_sent sim, events, Telemetry.capture obs sim)
  in
  (* [Sim.Pool.map] preserves scenario order, so both the delay statistics
     and the telemetry merge below are byte-identical under [--jobs N]. *)
  List.iteri
    (fun idx (sent, events, run) ->
      rcc_sent := !rcc_sent + sent;
      List.iter
        (function
          | `Recovered (from_detection, bound) -> (
            Sim.Stats.Sample.add delays from_detection;
            incr samples;
            match bound with
            | None -> ()
            | Some b ->
              Sim.Stats.Running.add bounds b;
              if from_detection <= b +. 1e-12 then incr within)
          | `Unrecovered -> incr unrecovered)
        events;
      Telemetry.add obs ~tag:idx run)
    (Sim.Pool.map observe scenarios);
  {
    scheme = config.Bcp.Protocol.scheme;
    scenarios = List.length scenarios;
    samples = !samples;
    unrecovered = !unrecovered;
    mean = (if !samples = 0 then 0.0 else Sim.Stats.Sample.mean delays);
    p50 = (if !samples = 0 then 0.0 else Sim.Stats.Sample.median delays);
    p99 = (if !samples = 0 then 0.0 else Sim.Stats.Sample.percentile delays 99.0);
    max = (if !samples = 0 then 0.0 else Sim.Stats.Sample.max delays);
    mean_bound = Sim.Stats.Running.mean bounds;
    within_bound_pct = Sim.Stats.ratio !within !samples;
    rcc_sent = !rcc_sent;
  }

let ms v = Printf.sprintf "%.3f ms" (1000.0 *. v)

let report stats_list =
  let r =
    Report.make ~title:"Failure-recovery delay (measured from detection)"
      ~columns:
        [
          "samples";
          "unrecovered";
          "mean";
          "p50";
          "p99";
          "max";
          "mean bound";
          "within bound";
        ]
  in
  List.iter
    (fun (s : stats) ->
      Report.add_row r ~label:(scheme_label s.scheme)
        ~cells:
          [
            string_of_int s.samples;
            string_of_int s.unrecovered;
            ms s.mean;
            ms s.p50;
            ms s.p99;
            ms s.max;
            ms s.mean_bound;
            Report.pct s.within_bound_pct;
          ])
    stats_list;
  r

let phase_rows (ph : phases) =
  [
    ("detect", ph.detect);
    ("report", ph.report);
    ("activate", ph.activate);
    ("switch", ph.switch);
  ]

let phases_report (ph : phases) =
  let r =
    Report.make ~title:"Recovery-phase breakdown"
      ~columns:[ "samples"; "p50"; "p95"; "max" ]
  in
  List.iter
    (fun (label, (p : phase_stats)) ->
      Report.add_row r ~label
        ~cells:[ string_of_int p.samples; ms p.p50; ms p.p95; ms p.max ])
    (phase_rows ph);
  r

let phases_to_json (ph : phases) =
  let phase (p : phase_stats) =
    Json.Obj
      [
        ("samples", Json.Int p.samples);
        ("p50", Json.Float p.p50);
        ("p95", Json.Float p.p95);
        ("max", Json.Float p.max);
      ]
  in
  Json.Obj (List.map (fun (label, p) -> (label, phase p)) (phase_rows ph))

let measure ?obs ?seed ?scenario_count ?node_failures ns =
  measure_with ~config:Bcp.Protocol.default_config ?obs ?seed ?scenario_count
    ?node_failures ns

let compare_schemes ?(seed = 11) ?(scenario_count = 8) ns =
  let stats =
    List.map
      (fun scheme ->
        let config = { Bcp.Protocol.default_config with scheme } in
        measure_with ~config ~seed ~scenario_count ~node_failures:false ns)
      [ Bcp.Protocol.Scheme1; Bcp.Protocol.Scheme2; Bcp.Protocol.Scheme3 ]
  in
  report stats
