(* The write path at steady state: the lifecycle loop of [Eval.Churn]
   driven event by event on the 16x16 torus at 8 E/node and 32 Mbps per
   connection, with no fault episodes.  Each op is one arrival
   (establish, then admit) or departure (remove_dconn). *)

let name = "churn16"
let network = Eval.Setup.Torus16
let offered = 8.0
let bandwidth = 32.0
let params = Ops.churn_params ~offered ~bandwidth

(* Events to steady occupancy, part of set-up. *)
let warmup = 8000

(* Events recorded after warm-up; a run stops there at the latest. *)
let max_events = 60_000
let chunk = 100

let build ~seed () =
  let ns = Bcp.Netstate.create (Eval.Setup.topology_of network) () in
  let c = Ops.churn ~seed ns params in
  for _ = 1 to warmup do
    ignore (Ops.step c)
  done;
  c

let record (c : Ops.churn) =
  Ops.setup_record ~established:c.admitted ~rejected:c.blocked c.ns

(* [Eval.Churn.run] over the same events must count what the loop did. *)
let reference ~seed ~events =
  match
    Eval.Churn.run ~seed ~events ~offered:[ offered ] ~mean_holding:50.0
      ~bandwidth ~hop_slack:2 ~backups:1 ~mux_degree:3 ~fault_every:0.0
      network
  with
  | [ o ] -> o
  | _ -> invalid_arg "Churn16.reference: one cell expected"

let counts = Printf.sprintf "arrivals=%d admitted=%d blocked=%d departures=%d peak=%d"

let reference_counts (o : Eval.Churn.outcome) =
  counts o.arrivals o.admitted o.blocked o.departures o.peak_active

let loop_counts (c : Ops.churn) =
  counts c.arrivals c.admitted c.blocked c.departures c.peak_active

let run (cfg : Harness.cfg) =
  let c = Harness.checks () in
  let s = Harness.setups cfg ~build:(build ~seed:cfg.seed) ~record in
  Harness.check_setup c cfg ~name s;
  let ch = s.state in
  let events = Meter.vec "" in
  let op i =
    match Ops.step ch with
    | e -> Meter.push events (String.make 1 e)
    | exception e ->
      Harness.fail_op c (Printf.sprintf "event %d: %s" i (Harness.exn_record e));
      Meter.push events "x"
  in
  let seconds, min_ops, max_ops =
    if cfg.record then (0.0, max_events, max_events)
    else (cfg.seconds, Harness.min_ops, max_events)
  in
  let mux_entries = Ops.mux_entries ch.ns in
  let arrivals0 = ch.arrivals and blocked0 = ch.blocked in
  ch.accept_ns <- Sim.Stats.Sample.create ();
  ch.reject_ns <- Sim.Stats.Sample.create ();
  let phase, ops_report = Harness.timed_phase cfg ~seconds ~min_ops ~max_ops op in
  let rss_mb = Meter.peak_rss_mb () in
  let ops = events.len in
  let line k = String.concat "" (Array.to_list (Array.sub events.items k (min chunk (ops - k)))) in
  let chunks = List.init ((ops + chunk - 1) / chunk) (fun j -> j * chunk) in
  if cfg.record then
    Harness.save_expected name
      (("setup", s.record)
      :: List.map (fun k -> (Printf.sprintf "events-%d" k, line k)) chunks)
  else if cfg.seed = Harness.default_seed then begin
    let expected = Harness.load_expected name in
    List.iter
      (fun k ->
        let got = line k in
        match Hashtbl.find_opt expected (Printf.sprintf "events-%d" k) with
        | None -> Harness.fail_op c (Printf.sprintf "events %d+: no recorded result" k)
        | Some want ->
          String.iteri
            (fun j e ->
              if j >= String.length want || want.[j] <> e then
                Harness.fail_op c
                  (Printf.sprintf "event %d: %c, recorded %s" (k + j) e
                     (if j < String.length want then String.make 1 want.[j] else "none")))
            got)
      chunks
  end;
  (* Self-test: [Eval.Churn.run], in the other tracing mode. *)
  let t0 = Meter.now_ns () in
  let o = Harness.other_mode cfg (fun () -> reference ~seed:cfg.seed ~events:(warmup + ops)) in
  let reference_s = Meter.since_s t0 in
  let mine = loop_counts ch in
  if mine <> reference_counts o then
    Harness.problem c (Printf.sprintf "loop %s, Eval.Churn.run %s" mine (reference_counts o));
  let layers =
    match (ops_report, s.report) with
    | Some ops_r, Some setup_r ->
      let blocked_pct =
        100.0 *. float_of_int (ch.blocked - blocked0)
        /. float_of_int (max 1 (ch.arrivals - arrivals0))
      in
      let probe = Probe.run ~seed:cfg.seed ch.ns in
      if probe.violations > 0 then Harness.problem c "probe episode tripped the monitor";
      let traced_s = List.nth s.times (List.length s.times - 1) +. phase.wall_s in
      Layers.compute
        {
          sources = { ops = ops_r; setup = setup_r; probe = probe.report };
          ops;
          phase;
          setup_gc = s.gc;
          mux_entries;
          establish = ch;
          blocked_pct;
          per_op = [];
          feed_ns_per_event = probe.feed_ns_per_event;
          overhead_pct = 100.0 *. ((traced_s /. reference_s) -. 1.0);
        }
    | _ -> []
  in
  {
    Harness.setup_s = s.times;
    phase;
    rss_mb;
    failed = c.failed;
    problems = List.rev c.problems;
    layers;
    facts =
      [
        ("warmup_events", string_of_int warmup);
        ("offered_erlangs_per_node", Printf.sprintf "%g" offered);
        ("bandwidth_mbps", Printf.sprintf "%g" bandwidth);
      ];
  }
