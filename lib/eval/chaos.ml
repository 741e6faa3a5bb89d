type level = {
  label : string;
  loss : float;
  dup : float;
  jitter : float;
  gray_frac : float;
}

let level ?(dup = 0.0) ?(jitter = 0.0) ?(gray_frac = 0.0) loss =
  let label =
    if loss = 0.0 && gray_frac = 0.0 then "clean"
    else if gray_frac = 0.0 then Printf.sprintf "loss %.0f%%" (100.0 *. loss)
    else
      Printf.sprintf "loss %.0f%% + gray %.0f%%" (100.0 *. loss)
        (100.0 *. gray_frac)
  in
  { label; loss; dup; jitter; gray_frac }

let default_levels =
  [
    level 0.0;
    level 0.05 ~dup:0.02 ~jitter:2e-4;
    level 0.10 ~dup:0.05 ~jitter:3e-4;
    level 0.20 ~dup:0.10 ~jitter:5e-4;
    level 0.30 ~dup:0.15 ~jitter:5e-4;
    level 0.05 ~dup:0.02 ~jitter:2e-4 ~gray_frac:0.05;
    level 0.20 ~dup:0.10 ~jitter:5e-4 ~gray_frac:0.10;
  ]

type outcome = {
  level : level;
  scenarios : int;
  affected : int;
  recovered : int;
  r_fast : float;
  mean_disruption : float;
  p99_disruption : float;
  rcc_sent : int;
  rcc_dropped : int;
  hb_confirms : int;
  hb_recoveries : int;
}

let run ?obs ?(seed = 11) ?(scenario_count = 16) ?(horizon = 0.25)
    ?(detector = `Oracle) ?(levels = default_levels) ns =
  let topo = Bcp.Netstate.topology ns in
  let m = Net.Topology.num_links topo in
  let rng = Sim.Prng.create seed in
  let failed_links = Sim.Prng.sample_at_most rng scenario_count m in
  let nscen = List.length failed_links in
  let config = Episode.config detector in
  let t_fail = 0.01 in
  List.mapi
    (fun li lvl ->
    (* Every scenario is seeded from (seed, level, scenario index), so
       the per-scenario simulations are independent and run on the
       domain pool; the observations are merged in scenario order,
       keeping the sweep byte-identical to a sequential run. *)
    let impair =
      Failures.Impair.make ~loss:lvl.loss ~dup:lvl.dup ~jitter:lvl.jitter ()
    in
    let gray_count =
      int_of_float (Float.round (lvl.gray_frac *. float_of_int m))
    in
    let observe (si, l) =
      (* A fraction of links is gray, drawn from its own stream. *)
      let gray_links =
        if gray_count = 0 then []
        else
          Sim.Prng.sample_without_replacement
            (Sim.Prng.create (seed + (31 * li) + si))
            gray_count m
      in
      Episode.run ?obs
        ~seeds:(seed + (7919 * li) + (104729 * si), 0)
        ~config ~until:(t_fail +. horizon) ns
        {
          (Failures.Plan.of_scenario ~at:t_fail
             (Failures.Scenario.single_link topo l))
          with
          impair;
          gray_links;
        }
    in
    let outcomes =
      Sim.Pool.map observe (List.mapi (fun si l -> (si, l)) failed_links)
    in
    (* Global scenario tag: levels are disjoint runs, so number them
       level-major to keep exported streams per-run. *)
    List.iteri
      (fun si (o : Episode.outcome) ->
        Telemetry.add obs ~tag:((li * nscen) + si) o.run)
      outcomes;
    let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
    let affected = sum (fun o -> List.length o.Episode.affected) in
    let recovered = sum (fun o -> List.length o.Episode.recovered) in
    let disruptions = Sim.Stats.Sample.create () in
    List.iter
      (fun (o : Episode.outcome) ->
        List.iter (fun (_, d) -> Sim.Stats.Sample.add disruptions d) o.recovered)
      outcomes;
    {
      level = lvl;
      scenarios = nscen;
      affected;
      recovered;
      r_fast =
        (if affected = 0 then 100.0 else Sim.Stats.ratio recovered affected);
      mean_disruption =
        (if recovered = 0 then 0.0 else Sim.Stats.Sample.mean disruptions);
      p99_disruption =
        (if recovered = 0 then 0.0
         else Sim.Stats.Sample.percentile disruptions 99.0);
      rcc_sent = sum (fun o -> o.Episode.rcc_sent);
      rcc_dropped = sum (fun o -> o.Episode.rcc_dropped);
      hb_confirms = sum (fun o -> o.Episode.hb_confirms);
      hb_recoveries = sum (fun o -> o.Episode.hb_recoveries);
    })
    levels

let detector_label = function
  | `Oracle -> "oracle detector"
  | `Heartbeat -> "heartbeat detector"

let ms v = Printf.sprintf "%.3f ms" (1000.0 *. v)

let titled_report ~title outcomes =
  let r =
    Report.make ~title
      ~columns:
        [
          "affected";
          "recovered";
          "R_fast";
          "mean disruption";
          "p99 disruption";
          "RCC sent";
          "RCC dropped";
          "HB confirms";
          "HB recoveries";
        ]
  in
  List.iter
    (fun o ->
      Report.add_row r ~label:o.level.label
        ~cells:
          [
            string_of_int o.affected;
            string_of_int o.recovered;
            Report.pct o.r_fast;
            ms o.mean_disruption;
            ms o.p99_disruption;
            string_of_int o.rcc_sent;
            string_of_int o.rcc_dropped;
            string_of_int o.hb_confirms;
            string_of_int o.hb_recoveries;
          ])
    outcomes;
  r

let report =
  titled_report ~title:"Chaos sweep: recovery vs control-plane impairment"

let sweep ?obs ?(seed = 11) ?scenario_count ?horizon ?(detector = `Oracle)
    ?levels network =
  let est = Setup.build ?obs ~seed ~backups:1 ~mux_degree:3 network in
  let outcomes =
    run ?obs ~seed ?scenario_count ?horizon ~detector ?levels est.Setup.ns
  in
  titled_report
    ~title:
      (Printf.sprintf "Chaos sweep (%s, %s)"
         (Setup.network_label network)
         (detector_label detector))
    outcomes
