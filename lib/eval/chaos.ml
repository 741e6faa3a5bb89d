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

let config_for detector =
  match detector with
  | `Oracle -> Bcp.Protocol.default_config
  | `Heartbeat ->
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
    }

let run ?obs ?(seed = 11) ?(scenario_count = 16) ?(horizon = 0.25)
    ?(detector = `Oracle) ?(levels = default_levels) ns =
  let topo = Bcp.Netstate.topology ns in
  let m = Net.Topology.num_links topo in
  let rng = Sim.Prng.create seed in
  let failed_links =
    Sim.Prng.sample_without_replacement rng (min scenario_count m) m
  in
  let nscen = List.length failed_links in
  let config = config_for detector in
  let t_fail = 0.01 in
  List.mapi
    (fun li lvl ->
    (* Every scenario is seeded from (seed, level, scenario index), so
       the per-scenario simulations are independent and run on the
       domain pool; the observations are merged in scenario order,
       keeping the sweep byte-identical to a sequential run. *)
    let observe (si, l) =
      let sim = Bcp.Simnet.create ~config ~telemetry:(obs <> None) ns in
      let profile =
        Failures.Impair.make ~loss:lvl.loss ~dup:lvl.dup ~jitter:lvl.jitter
          ()
      in
      let imp =
        Failures.Impair.create
          ~seed:(seed + (7919 * li) + (104729 * si))
          ~default:profile ()
      in
      (* A fraction of links is gray: reported up, silently dropping
         every control message and ack. *)
      let gray_count = int_of_float (Float.round (lvl.gray_frac *. float_of_int m)) in
      if gray_count > 0 then begin
        let grng = Sim.Prng.create (seed + (31 * li) + si) in
        List.iter
          (fun gl ->
            Failures.Impair.set_link imp ~link:gl
              (Failures.Impair.make ~gray:true ()))
          (Sim.Prng.sample_without_replacement grng gray_count m)
      end;
      Bcp.Simnet.set_impairment sim imp;
      Bcp.Simnet.inject sim ~at:t_fail (Failures.Scenario.single_link topo l);
      Bcp.Simnet.run ~until:(t_fail +. horizon) sim;
      Bcp.Simnet.finalize sim;
      let obs_affected = ref 0 and obs_disruptions = ref [] in
      List.iter
        (fun r ->
          if not r.Bcp.Node.excluded then begin
            incr obs_affected;
            match (r.Bcp.Node.resumed_at, r.Bcp.Node.recovered_serial) with
            | Some resumed, Some _ ->
              obs_disruptions :=
                (resumed -. r.Bcp.Node.failure_time) :: !obs_disruptions
            | _ -> ()
          end)
        (Bcp.Simnet.records sim);
      ( !obs_affected,
        List.rev !obs_disruptions,
        Bcp.Simnet.rcc_messages_sent sim,
        Bcp.Simnet.rcc_messages_dropped sim,
        Bcp.Simnet.heartbeat_confirms sim,
        Bcp.Simnet.heartbeat_recoveries sim,
        Telemetry.capture obs sim )
    in
    let affected = ref 0 and recovered = ref 0 in
    let rcc_sent = ref 0 and rcc_dropped = ref 0 in
    let hb_confirms = ref 0 and hb_recoveries = ref 0 in
    let disruptions = Sim.Stats.Sample.create () in
    List.iteri
      (fun si (aff, disr, sent, dropped, confirms, recoveries, run) ->
        affected := !affected + aff;
        recovered := !recovered + List.length disr;
        List.iter (Sim.Stats.Sample.add disruptions) disr;
        rcc_sent := !rcc_sent + sent;
        rcc_dropped := !rcc_dropped + dropped;
        hb_confirms := !hb_confirms + confirms;
        hb_recoveries := !hb_recoveries + recoveries;
        (* Global scenario tag: levels are disjoint runs, so number
           them level-major to keep exported streams per-run. *)
        Telemetry.add obs ~tag:((li * nscen) + si) run)
      (Sim.Pool.map observe
         (List.mapi (fun si l -> (si, l)) failed_links));
    {
      level = lvl;
      scenarios = List.length failed_links;
      affected = !affected;
      recovered = !recovered;
      r_fast =
        (if !affected = 0 then 100.0 else Sim.Stats.ratio !recovered !affected);
      mean_disruption =
        (if !recovered = 0 then 0.0 else Sim.Stats.Sample.mean disruptions);
      p99_disruption =
        (if !recovered = 0 then 0.0
         else Sim.Stats.Sample.percentile disruptions 99.0);
      rcc_sent = !rcc_sent;
      rcc_dropped = !rcc_dropped;
      hb_confirms = !hb_confirms;
      hb_recoveries = !hb_recoveries;
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
