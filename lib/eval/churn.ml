type window = {
  w_end : float;
  w_arrivals : int;
  w_blocked : int;
  w_departures : int;
  w_active : int;
  w_load : float;
  w_spare : float;
  w_mux_entries : int;
  w_max_link_mux : int;
  w_min_free : float;
}

type episode_violation = {
  ev_cell : int;
  ev_episode : int;
  ev_time : float;
  ev_kind : string;
}

type outcome = {
  offered : float;
  events : int;
  arrivals : int;
  admitted : int;
  blocked : int;
  departures : int;
  readmitted : int;
  readmit_blocked : int;
  blocking : float;  (** % of arrivals blocked *)
  peak_active : int;
  final_active : int;
  episodes : int;
  affected : int;
  recovered : int;
  r_fast : float;
  p50_disruption : float;
  p95_disruption : float;
  p99_disruption : float;
  peak_mux_entries : int;
  final_mux_entries : int;
  min_free : float;
  violations : episode_violation list;
  windows : window list;
}

let detector_label = function `Oracle -> "oracle" | `Heartbeat -> "heartbeat"

(* Mux-table pressure snapshot: total and max per-link registration
   counts, and the tightest free-bandwidth headroom
   (capacity − primary − spare) across all links. *)
let mux_pressure ns =
  let topo = Bcp.Netstate.topology ns in
  let mux = Bcp.Netstate.mux ns in
  let res = Bcp.Netstate.resources ns in
  let total = ref 0 and widest = ref 0 and min_free = ref infinity in
  for l = 0 to Net.Topology.num_links topo - 1 do
    let c = Bcp.Mux.count_on mux ~link:l in
    total := !total + c;
    if c > !widest then widest := c;
    let f = Rtchan.Resource.free res l in
    if f < !min_free then min_free := f
  done;
  (!total, !widest, !min_free)

(* One offered-load cell: an independent netstate driven through [events]
   lifecycle events, with a transient single-link fault episode every
   [fault_every] sim seconds (0 = none).  Fully self-contained (own
   netstate, own PRNG streams derived from the cell seed), so cells run
   on the domain pool and merge deterministically in cell order. *)
let run_cell ~obs ~seed ~events ~fault_every ~horizon ~detector ~windows
    ~network ~cell params =
  Sim.Prof.span "churn.cell" @@ fun () ->
  let topo = Setup.topology_of network in
  let ns = Bcp.Netstate.create topo () in
  let cseed = Sim.Prng.derive ~seed ~index:cell in
  let driver = Workload.Churn.create ~seed:cseed topo params in
  let erng = Sim.Prng.create (Sim.Prng.derive ~seed:cseed ~index:104729) in
  let config = Episode.config detector in
  let metrics = Option.map (fun _ -> Sim.Metrics.create ()) obs in
  (* Events are kept only for a collector that keeps them: a heartbeat
     fault episode records tens of thousands. *)
  let keep_events = Option.fold ~none:false ~some:Telemetry.keeps_events obs in
  let timed = ref [] in
  let life op conn =
    match metrics with
    | None -> ()
    | Some m ->
      Sim.Metrics.incr
        (Sim.Metrics.counter m
           ~labels:[ ("op", Sim.Event.lifecycle_op_to_string op) ]
           "workload.lifecycle");
      if keep_events then
        timed :=
          ( Workload.Churn.now driver,
            Sim.Event.Lifecycle
              { conn; op; active = Workload.Churn.active driver } )
          :: !timed
  in
  let arrivals = ref 0 and admitted = ref 0 and blocked = ref 0 in
  let departures = ref 0 and readmitted = ref 0 and readmit_blocked = ref 0 in
  let peak_active = ref 0 in
  let episodes = ref 0 and affected = ref 0 and recovered = ref 0 in
  let violations = ref [] in
  let disruptions = Sim.Stats.Sample.create () in
  let peak_mux = ref 0 and min_free = ref infinity in
  let windows_acc = ref [] in
  let wsize = max 1 (events / max 1 windows) in
  let w_arr = ref 0 and w_blk = ref 0 and w_dep = ref 0 in
  let close_window () =
    Sim.Prof.span "churn.window" @@ fun () ->
    let total, widest, free = mux_pressure ns in
    if total > !peak_mux then peak_mux := total;
    if free < !min_free then min_free := free;
    windows_acc :=
      {
        w_end = Workload.Churn.now driver;
        w_arrivals = !w_arr;
        w_blocked = !w_blk;
        w_departures = !w_dep;
        w_active = Workload.Churn.active driver;
        w_load = Bcp.Netstate.network_load ns;
        w_spare = Bcp.Netstate.spare_fraction ns;
        w_mux_entries = total;
        w_max_link_mux = widest;
        w_min_free = free;
      }
      :: !windows_acc;
    w_arr := 0;
    w_blk := 0;
    w_dep := 0
  in
  (* Transient fault episode: snapshot the planning state into a fresh
     event-driven simulation (non-destructive: the default config keeps
     [reconfigure_netstate = false]), fail one uniformly drawn link,
     audit the recovery with a context-aware monitor, then model the
     connections that failed to recover within the horizon as dropped:
     torn down and re-admitted under fresh ids. *)
  let run_episode ~at =
    Sim.Prof.span "churn.episode" @@ fun () ->
    incr episodes;
    let ep = !episodes in
    let link = Sim.Prng.int erng (Net.Topology.num_links topo) in
    let monitor =
      Sim.Monitor.create
        ~context:(Audit.context_of_netstate ns)
        ~decode_channel:Audit.decode_cid ()
    in
    let o =
      Episode.run ?obs ~monitor ~config ~until:(0.01 +. horizon) ns
        (Failures.Plan.of_scenario ~at:0.01
           (Failures.Scenario.single_link topo link))
    in
    List.iter
      (fun v ->
        violations :=
          {
            ev_cell = cell;
            ev_episode = ep;
            ev_time = v.Sim.Monitor.time;
            ev_kind = Sim.Monitor.kind_to_string v.Sim.Monitor.kind;
          }
          :: !violations)
      (Sim.Monitor.violations monitor);
    affected := !affected + List.length o.affected;
    recovered := !recovered + List.length o.recovered;
    List.iter (fun (_, d) -> Sim.Stats.Sample.add disruptions d) o.recovered;
    (match (metrics, o.run) with
    | Some m, Some (episode_metrics, events) ->
      Sim.Metrics.merge_into ~into:m episode_metrics;
      List.iter (fun (t, ev) -> timed := (at +. t, ev) :: !timed) events
    | _ -> ());
    List.iter
      (fun (r : Bcp.Simnet.record) ->
        match Bcp.Netstate.find ns r.conn with
        | None -> ()
        | Some dc ->
          Bcp.Netstate.remove_dconn ns r.conn;
          let conn = Workload.Churn.fresh_conn driver in
          let req =
            {
              Bcp.Establish.src = dc.Bcp.Dconn.src;
              dst = dc.Bcp.Dconn.dst;
              traffic = dc.Bcp.Dconn.traffic;
              qos = dc.Bcp.Dconn.qos;
              backups = params.Workload.Churn.backups;
              mux_degree = params.Workload.Churn.mux_degree;
            }
          in
          (* The displaced connection's old departure stays scheduled
             under its old id and pops as a no-op teardown later. *)
          (match Bcp.Establish.establish ns ~conn_id:conn req with
          | Ok _ ->
            incr readmitted;
            Workload.Churn.admit driver ~conn;
            life Sim.Event.Readmit conn
          | Error _ -> incr readmit_blocked))
      o.unrecovered
  in
  let next_fault = ref (if fault_every > 0.0 then fault_every else infinity) in
  while Workload.Churn.emitted driver < events do
    (match Workload.Churn.next driver with
    | Workload.Churn.Arrival { conn; request; _ } -> (
      incr arrivals;
      incr w_arr;
      life Sim.Event.Arrive conn;
      match Bcp.Establish.establish ns ~conn_id:conn request with
      | Ok _ ->
        incr admitted;
        Workload.Churn.admit driver ~conn;
        if Workload.Churn.active driver > !peak_active then
          peak_active := Workload.Churn.active driver;
        life Sim.Event.Admit conn
      | Error _ ->
        incr blocked;
        incr w_blk;
        life Sim.Event.Block conn)
    | Workload.Churn.Departure { conn; _ } ->
      incr departures;
      incr w_dep;
      (match Bcp.Netstate.find ns conn with
      | Some _ -> Bcp.Netstate.remove_dconn ns conn
      | None -> ());
      life Sim.Event.Depart conn);
    while Workload.Churn.now driver >= !next_fault do
      run_episode ~at:!next_fault;
      next_fault := !next_fault +. fault_every
    done;
    if Workload.Churn.emitted driver mod wsize = 0 then close_window ()
  done;
  if events mod wsize <> 0 then close_window ();
  let final_mux, _, final_free = mux_pressure ns in
  if final_free < !min_free then min_free := final_free;
  let pc p =
    if Sim.Stats.Sample.count disruptions = 0 then 0.0
    else Sim.Stats.Sample.percentile disruptions p
  in
  let outcome =
    {
      offered = params.Workload.Churn.offered;
      events;
      arrivals = !arrivals;
      admitted = !admitted;
      blocked = !blocked;
      departures = !departures;
      readmitted = !readmitted;
      readmit_blocked = !readmit_blocked;
      blocking =
        (if !arrivals = 0 then 0.0 else Sim.Stats.ratio !blocked !arrivals);
      peak_active = !peak_active;
      final_active = Workload.Churn.active driver;
      episodes = !episodes;
      affected = !affected;
      recovered = !recovered;
      r_fast =
        (if !affected = 0 then 100.0
         else Sim.Stats.ratio !recovered !affected);
      p50_disruption = pc 50.0;
      p95_disruption = pc 95.0;
      p99_disruption = pc 99.0;
      peak_mux_entries = !peak_mux;
      final_mux_entries = final_mux;
      min_free = !min_free;
      violations = List.rev !violations;
      windows = List.rev !windows_acc;
    }
  in
  (outcome, Option.map (fun m -> (m, List.rev !timed)) metrics)

let run ?obs ?(seed = 42) ?(events = 20_000) ?(offered = [ 2.0; 4.0; 6.0 ])
    ?(mean_holding = 50.0) ?(bandwidth = 1.0) ?(hop_slack = 2) ?(backups = 1)
    ?(mux_degree = 3) ?(fault_every = 0.0) ?(horizon = 0.25)
    ?(detector = `Oracle) ?(windows = 8) network =
  if offered = [] then invalid_arg "Churn.run: empty offered-load ladder";
  let cells =
    List.mapi
      (fun i off ->
        ( i,
          Workload.Churn.make_params ~mean_holding ~bandwidth ~hop_slack
            ~backups ~mux_degree ~offered:off () ))
      offered
  in
  let results =
    Sim.Pool.map
      (fun (cell, params) ->
        run_cell ~obs ~seed ~events ~fault_every ~horizon
          ~detector ~windows ~network ~cell params)
      cells
  in
  List.mapi
    (fun cell (outcome, run) ->
      Telemetry.add obs ~tag:cell run;
      outcome)
    results

(* ---------- reports ---------- *)

let ms v = Printf.sprintf "%.3f ms" (1000.0 *. v)
let offered_label o = Printf.sprintf "offered %.1f E/node" o.offered

let summary_report ?(title = "Steady-state churn: blocking and recovery")
    outcomes =
  let r =
    Report.make ~title
      ~columns:
        [
          "arrivals";
          "blocked";
          "blocking";
          "readmitted";
          "peak active";
          "episodes";
          "R_fast";
          "p50 disruption";
          "p99 disruption";
          "peak mux";
          "min free";
          "violations";
        ]
  in
  List.iter
    (fun o ->
      Report.add_row r ~label:(offered_label o)
        ~cells:
          [
            string_of_int o.arrivals;
            string_of_int o.blocked;
            Report.pct o.blocking;
            string_of_int o.readmitted;
            string_of_int o.peak_active;
            string_of_int o.episodes;
            Report.pct o.r_fast;
            ms o.p50_disruption;
            ms o.p99_disruption;
            string_of_int o.peak_mux_entries;
            Printf.sprintf "%.1f Mbps" o.min_free;
            string_of_int (List.length o.violations);
          ])
    outcomes;
  r

let windows_report ?title o =
  let title =
    match title with
    | Some t -> t
    | None -> Printf.sprintf "Churn windows (%s)" (offered_label o)
  in
  let r =
    Report.make ~title
      ~columns:
        [
          "t_end";
          "arrivals";
          "blocked";
          "departures";
          "active";
          "load";
          "spare";
          "mux entries";
          "max link mux";
          "min free";
        ]
  in
  List.iteri
    (fun i w ->
      Report.add_row r
        ~label:(Printf.sprintf "w%d" (i + 1))
        ~cells:
          [
            Printf.sprintf "%.1f s" w.w_end;
            string_of_int w.w_arrivals;
            string_of_int w.w_blocked;
            string_of_int w.w_departures;
            string_of_int w.w_active;
            Report.pct w.w_load;
            Report.pct w.w_spare;
            string_of_int w.w_mux_entries;
            string_of_int w.w_max_link_mux;
            Printf.sprintf "%.1f Mbps" w.w_min_free;
          ])
    o.windows;
  r

(* ---------- JSON (schema bcp-churn/v1) ---------- *)

let window_to_json w =
  Json.Obj
    [
      ("t_end", Json.Float w.w_end);
      ("arrivals", Json.Int w.w_arrivals);
      ("blocked", Json.Int w.w_blocked);
      ("departures", Json.Int w.w_departures);
      ("active", Json.Int w.w_active);
      ("load_pct", Json.Float w.w_load);
      ("spare_pct", Json.Float w.w_spare);
      ("mux_entries", Json.Int w.w_mux_entries);
      ("max_link_mux", Json.Int w.w_max_link_mux);
      ("min_free_mbps", Json.Float w.w_min_free);
    ]

let violation_to_json v =
  Json.Obj
    [
      ("cell", Json.Int v.ev_cell);
      ("episode", Json.Int v.ev_episode);
      ("time", Json.Float v.ev_time);
      ("kind", Json.String v.ev_kind);
    ]

let outcome_to_json o =
  Json.Obj
    [
      ("offered", Json.Float o.offered);
      ("events", Json.Int o.events);
      ("arrivals", Json.Int o.arrivals);
      ("admitted", Json.Int o.admitted);
      ("blocked", Json.Int o.blocked);
      ("departures", Json.Int o.departures);
      ("readmitted", Json.Int o.readmitted);
      ("readmit_blocked", Json.Int o.readmit_blocked);
      ("blocking_pct", Json.Float o.blocking);
      ("peak_active", Json.Int o.peak_active);
      ("final_active", Json.Int o.final_active);
      ("episodes", Json.Int o.episodes);
      ("affected", Json.Int o.affected);
      ("recovered", Json.Int o.recovered);
      ("r_fast_pct", Json.Float o.r_fast);
      ("p50_disruption_s", Json.Float o.p50_disruption);
      ("p95_disruption_s", Json.Float o.p95_disruption);
      ("p99_disruption_s", Json.Float o.p99_disruption);
      ("peak_mux_entries", Json.Int o.peak_mux_entries);
      ("final_mux_entries", Json.Int o.final_mux_entries);
      ("min_free_mbps", Json.Float o.min_free);
      ("violations", Json.List (List.map violation_to_json o.violations));
      ("windows", Json.List (List.map window_to_json o.windows));
    ]

let report_to_json ~seed ~events ~fault_every ~horizon ~detector ~network
    outcomes =
  Json.Obj
    [
      ("schema", Json.String "bcp-churn/v1");
      ("network", Json.String (Setup.network_label network));
      ("detector", Json.String (detector_label detector));
      ("seed", Json.Int seed);
      ("events_per_cell", Json.Int events);
      ("fault_every_s", Json.Float fault_every);
      (* No jobs field: the summary must not depend on --jobs, so the
         emitted file is byte-identical for every domain count. *)
      ("horizon_s", Json.Float horizon);
      ("cells", Json.List (List.map outcome_to_json outcomes));
    ]

let total_violations outcomes =
  List.fold_left (fun acc o -> acc + List.length o.violations) 0 outcomes
