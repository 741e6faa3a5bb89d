(* Per-layer metrics of a traced run.  They come from three [Sim.Prof]
   reports: the timed ops, the traced set-up, and a probe phase that
   exercises, on the workload's final network, the layers its own ops
   leave idle.  A time is taken from the first of the three reports in
   which its span ran; a per-op count always comes from the workload's
   own ops, so a layer the ops never call counts 0. *)

type metric = { name : string; unit : string; value : float }

(* Run [f] with [Sim.Prof] on, from a clean slate. *)
let capture f =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  match f () with
  | x ->
    Sim.Prof.disable ();
    (x, Sim.Prof.report ())
  | exception e ->
    Sim.Prof.disable ();
    raise e

let find (r : Sim.Prof.report) name =
  List.find_opt
    (fun (s : Sim.Prof.span_stat) -> s.name = name && s.count > 0)
    r.spans

let counter (r : Sim.Prof.report) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name r.counters))

type sources = {
  ops : Sim.Prof.report;
  setup : Sim.Prof.report;
  probe : Sim.Prof.report;
}

let first src name =
  List.find_map
    (fun r -> Option.map (fun s -> (r, s)) (find r name))
    [ src.ops; src.setup; src.probe ]

(* Mean wall time per call of a span, in units of [scale] ns. *)
let per_call ?(self = false) src name scale =
  match first src name with
  | None -> 0.0
  | Some (_, s) ->
    (if self then s.self_ns else s.total_ns) /. float_of_int s.count /. scale

(* A counter per establishment request, in the phase that established. *)
let per_request src name =
  match first src "establish.serial" with
  | None -> 0.0
  | Some (r, s) -> counter r name /. float_of_int s.count

let ns_per_event src =
  match first src "bench.simnet.run" with
  | None -> 0.0
  | Some (r, s) ->
    let events = counter r "engine.events" in
    if events = 0.0 then 0.0 else s.total_ns /. events

type inputs = {
  sources : sources;
  ops : int;
  phase : Meter.phase;
  setup_gc : float * float;  (** minor, major words of one untraced set-up *)
  mux_entries : int * int;  (** total, widest link, after set-up *)
  establish : Ops.churn;  (** the lifecycle events establish times come from *)
  blocked_pct : float;
  per_op : (string * float) list;  (** workload totals over the timed ops *)
  feed_ns_per_event : float;
  overhead_pct : float;
}

(* Every per-layer metric, with its unit. *)
let compute i =
  let src = i.sources in
  let ops = float_of_int (max 1 i.ops) in
  let per_op name =
    Option.value ~default:0.0 (List.assoc_opt name i.per_op) /. ops
  in
  let mean_us s =
    if Sim.Stats.Sample.count s = 0 then 0.0 else Sim.Stats.Sample.mean s /. 1e3
  in
  let m name unit value = { name; unit; value } in
  let count name = m name "count" (per_op name) in
  [
    m "routing.oracle_build_s" "s" (per_call src "route.oracle_build" 1e9);
    m "routing.primary_us" "us" (per_call ~self:true src "establish.primary" 1e3);
    m "routing.backup_route_us" "us"
      (per_call ~self:true src "establish.backup_route" 1e3);
    m "routing.pruned_per_req" "count" (per_request src "route.pruned");
    m "routing.oracle_hits_per_req" "count" (per_request src "route.oracle_hits");
    m "mux.register_us" "us" (per_call src "establish.register" 1e3);
    m "mux.probes_per_req" "count" (per_request src "mux.probe");
    m "mux.registers_per_op" "count" (counter src.ops "mux.register" /. ops);
    m "mux.unregisters_per_op" "count" (counter src.ops "mux.unregister" /. ops);
    m "mux.entries" "count" (float_of_int (fst i.mux_entries));
    m "mux.max_link_entries" "count" (float_of_int (snd i.mux_entries));
    m "establish.accept_us" "us" (mean_us i.establish.accept_ns);
    m "establish.reject_us" "us" (mean_us i.establish.reject_ns);
    m "establish.blocked_pct" "%" i.blocked_pct;
    m "netstate.remove_dconn_us" "us"
      (per_call src "bench.netstate.remove_dconn" 1e3);
    m "netstate.spare_pool_us" "us" (per_call src "bench.netstate.spare_pool" 1e3);
    m "recovery.simulate_us" "us" (per_call src "bench.recovery.simulate" 1e3);
    m "recovery.affected_conns_us" "us"
      (per_call src "bench.recovery.affected_conns" 1e3);
    count "recovery.affected_per_op";
    m "simnet.create_ms" "ms" (per_call src "bench.simnet.create" 1e6);
    m "simnet.run_ms" "ms" (per_call src "bench.simnet.run" 1e6);
    m "simnet.finalize_ms" "ms" (per_call src "bench.simnet.finalize" 1e6);
    m "engine.events_per_op" "count" (counter src.ops "engine.events" /. ops);
    m "engine.ns_per_event" "ns" (ns_per_event src);
    count "rcc.sent_per_op";
    count "rcc.delivered_per_op";
    count "rcc.dropped_per_op";
    count "detector.confirms_per_op";
    count "detector.false_recoveries_per_op";
    m "monitor.context_ms" "ms" (per_call src "bench.monitor.context" 1e6);
    m "monitor.create_ms" "ms" (per_call src "bench.monitor.create" 1e6);
    count "monitor.events_per_op";
    m "monitor.feed_ns_per_event" "ns" i.feed_ns_per_event;
    m "workload.next_us" "us" (per_call src "bench.workload.next" 1e3);
    m "gc.setup_minor_kwords" "kwords" (fst i.setup_gc /. 1e3);
    m "gc.setup_major_kwords" "kwords" (snd i.setup_gc /. 1e3);
    m "gc.op_minor_words" "words" (i.phase.minor_words /. ops);
    m "gc.op_major_words" "words" (i.phase.major_words /. ops);
    m "trace.overhead_pct" "%" i.overhead_pct;
  ]
