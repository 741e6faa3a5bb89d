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
    Sim.Prng.sample_at_most rng scenario_count (Net.Topology.num_links topo)
  in
  let nodes =
    if node_failures then
      Sim.Prng.sample_at_most rng
        (max 1 (scenario_count / 4))
        (Net.Topology.num_nodes topo)
    else []
  in
  let scenarios =
    List.map (fun l -> Failures.Scenario.single_link topo l) links
    @ List.map (fun v -> Failures.Scenario.single_node topo v) nodes
  in
  let t_fail = 0.01 in
  (* Stop before the rejoin timers tear anything down. *)
  let until = t_fail +. (0.5 *. config.Bcp.Protocol.rejoin_timeout) in
  (* Each scenario simulates against the read-only netstate on the domain
     pool; [Sim.Pool.map] keeps scenario order, so the statistics and the
     telemetry merge are byte-identical under any [--jobs]. *)
  let outcomes =
    Sim.Pool.map
      (fun sc ->
        Episode.run ?obs ~config ~until ns
          (Failures.Plan.of_scenario ~at:t_fail sc))
      scenarios
  in
  let delays = Sim.Stats.Sample.create () in
  let bounds = Sim.Stats.Running.create () in
  let within = ref 0 in
  List.iteri
    (fun idx (o : Episode.outcome) ->
      List.iter
        (fun (r, disruption) ->
          let from_detection =
            Float.max 0.0 (disruption -. config.Bcp.Protocol.detection_latency)
          in
          Sim.Stats.Sample.add delays from_detection;
          match
            conn_bound ns r.Bcp.Node.conn
              config.Bcp.Protocol.rcc.Rcc.Transport.d_max
          with
          | None -> ()
          | Some b ->
            Sim.Stats.Running.add bounds b;
            if from_detection <= b +. 1e-12 then incr within)
        o.recovered;
      Telemetry.add obs ~tag:idx o.run)
    outcomes;
  let samples = Sim.Stats.Sample.count delays in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  {
    scheme = config.Bcp.Protocol.scheme;
    scenarios = List.length scenarios;
    samples;
    unrecovered = sum (fun o -> List.length o.Episode.unrecovered);
    mean = (if samples = 0 then 0.0 else Sim.Stats.Sample.mean delays);
    p50 = (if samples = 0 then 0.0 else Sim.Stats.Sample.median delays);
    p99 = (if samples = 0 then 0.0 else Sim.Stats.Sample.percentile delays 99.0);
    max = (if samples = 0 then 0.0 else Sim.Stats.Sample.max delays);
    mean_bound = Sim.Stats.Running.mean bounds;
    within_bound_pct = Sim.Stats.ratio !within samples;
    rcc_sent = sum (fun o -> o.Episode.rcc_sent);
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
