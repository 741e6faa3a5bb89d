(* The three kinds of operation the workloads time, each a sequence of
   calls into public functions wrapped in the benchmark's own
   [bench.*] spans.  The spans cost one atomic load while [Sim.Prof] is
   disabled, so the untraced and traced runs execute the same code. *)

let span = Sim.Prof.span

(* ---------- set-up facts ---------- *)

let mux_entries ns =
  let topo = Bcp.Netstate.topology ns and mux = Bcp.Netstate.mux ns in
  let total = ref 0 and widest = ref 0 in
  for link = 0 to Net.Topology.num_links topo - 1 do
    let c = Bcp.Mux.count_on mux ~link in
    total := !total + c;
    widest := max !widest c
  done;
  (!total, !widest)

(* Established and rejected counts, spare %, mux entries and a digest of
   every link's spare pool: equal records mean equal set-ups. *)
let setup_record ~established ~rejected ns =
  let entries, widest = mux_entries ns in
  let pools = Bcp.Netstate.spare_pool ns in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ","
            (Array.to_list (Array.map (Printf.sprintf "%h") pools))))
  in
  Printf.sprintf "established=%d rejected=%d spare=%.6f mux=%d widest=%d pools=%s"
    established rejected
    (Bcp.Netstate.spare_fraction ns)
    entries widest (String.sub digest 0 16)

(* ---------- failure scenarios ---------- *)

let scenarios topo =
  Array.of_list
    (Failures.Scenario.all_single_links topo
    @ Failures.Scenario.all_single_nodes topo)

(* A seeded order over [links] link scenarios (indices [0, links)) and
   [nodes] node scenarios (the indices after them): each class is
   shuffled, then the two are interleaved in their overall ratio, so
   every prefix of the order holds the same mix of links and nodes. *)
let stratified_order ~seed ~links ~nodes =
  let rng = Sim.Prng.create seed in
  let l = Array.init links Fun.id and n = Array.init nodes (fun i -> links + i) in
  Sim.Prng.shuffle rng l;
  Sim.Prng.shuffle rng n;
  let total = links + nodes in
  let li = ref 0 and ni = ref 0 in
  Array.init total (fun k ->
      if !ni < nodes && (!li >= links || (!ni + 1) * total <= (k + 1) * nodes)
      then begin
        incr ni;
        n.(!ni - 1)
      end
      else begin
        incr li;
        l.(!li - 1)
      end)

(* ---------- static R_fast ---------- *)

let simulate ns (sc : Failures.Scenario.t) =
  span "bench.recovery.simulate" (fun () ->
      Bcp.Recovery.simulate ns ~failed:sc.components)

(* Affected, excluded, recovered, mux-failure and no-healthy-backup
   counts. *)
let static_record (r : Bcp.Recovery.result) =
  Printf.sprintf "%d %d %d %d %d"
    r.affected r.excluded r.recovered r.mux_failures r.no_healthy_backup

(* ---------- audited event-driven recovery ---------- *)

let heartbeat =
  {
    Bcp.Protocol.default_config with
    Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
  }

(* The failure strikes once the heartbeat streams run; the horizon is
   long enough that every affected connection's outcome is final (on
   the 8x8 torus, a longer horizon changes no record). *)
let t_fail = 0.002
let horizon = 0.045

let context ns =
  span "bench.monitor.context" (fun () -> Eval.Audit.context_of_netstate ns)

type episode = {
  records : Bcp.Simnet.record list;
  violations : int;
  monitor_events : int;
  rcc_sent : int;
  rcc_delivered : int;
  rcc_dropped : int;
  confirms : int;
  false_recoveries : int;
  trace : (float * Sim.Event.t) list;  (** only with [~keep_trace] *)
}

let episode ?(keep_trace = false) ns context sc =
  let monitor =
    span "bench.monitor.create" (fun () ->
        Sim.Monitor.create ~context ~decode_channel:Eval.Audit.decode_cid ())
  in
  let sim =
    span "bench.simnet.create" (fun () ->
        Bcp.Simnet.create ~config:heartbeat ~monitor ns)
  in
  span "bench.simnet.run" (fun () ->
      Bcp.Simnet.inject sim ~at:t_fail sc;
      Bcp.Simnet.run ~until:(t_fail +. horizon) sim);
  span "bench.simnet.finalize" (fun () -> Bcp.Simnet.finalize sim);
  {
    records = Bcp.Simnet.records sim;
    violations = List.length (Sim.Monitor.violations monitor);
    monitor_events = Sim.Monitor.events_seen monitor;
    rcc_sent = Bcp.Simnet.rcc_messages_sent sim;
    rcc_delivered = Bcp.Simnet.control_messages_delivered sim;
    rcc_dropped = Bcp.Simnet.rcc_messages_dropped sim;
    confirms = Bcp.Simnet.heartbeat_confirms sim;
    false_recoveries = Bcp.Simnet.heartbeat_recoveries sim;
    trace =
      (if keep_trace then Sim.Trace.events (Bcp.Simnet.trace sim) else []);
  }

(* Counts per outcome plus a digest of every connection's record, times
   included (the simulation is deterministic to the bit). *)
let episode_record e =
  let opt f = function None -> "-" | Some v -> f v in
  let count p = List.length (List.filter p e.records) in
  let line (r : Bcp.Simnet.record) =
    Printf.sprintf "%d,%b,%s,%s,%s,%s" r.conn r.excluded
      (opt string_of_int r.recovered_serial)
      (opt (Printf.sprintf "%h") r.detected_at)
      (opt (Printf.sprintf "%h") r.activated_at)
      (opt (Printf.sprintf "%h") r.resumed_at)
  in
  let digest =
    Digest.to_hex (Digest.string (String.concat ";" (List.map line e.records)))
  in
  Printf.sprintf "affected=%d excluded=%d recovered=%d resumed=%d violations=%d records=%s"
    (count (fun r -> not r.excluded))
    (count (fun r -> r.excluded))
    (count (fun r -> r.recovered_serial <> None))
    (count (fun r -> r.resumed_at <> None))
    e.violations (String.sub digest 0 16)

(* Feed a recorded trace into a fresh monitor; returns the wall time of
   the [Monitor.feed] calls, the events fed and the violations found. *)
let replay context trace =
  let monitor =
    Sim.Monitor.create ~context ~decode_channel:Eval.Audit.decode_cid ()
  in
  let t0 = Meter.now_ns () in
  List.iter (fun (time, ev) -> Sim.Monitor.feed monitor ~time ev) trace;
  let feed_ns = Meter.now_ns () -. t0 in
  Sim.Monitor.finish monitor;
  (feed_ns, List.length trace, List.length (Sim.Monitor.violations monitor))

(* ---------- connection lifecycle ---------- *)

type churn = {
  ns : Bcp.Netstate.t;
  driver : Workload.Churn.t;
  id_offset : int;  (** added to driver ids, to keep clear of set-up ids *)
  mutable arrivals : int;
  mutable admitted : int;
  mutable blocked : int;
  mutable departures : int;
  mutable peak_active : int;
  mutable accept_ns : Sim.Stats.Sample.t;
      (** wall time of admitted establishments *)
  mutable reject_ns : Sim.Stats.Sample.t;
}

let churn_params ~offered ~bandwidth =
  Workload.Churn.make_params ~mean_holding:50.0 ~bandwidth ~hop_slack:2
    ~backups:1 ~mux_degree:3 ~offered ()

(* The driver seed [Eval.Churn.run] gives its first cell. *)
let churn ?(id_offset = 0) ~seed ns params =
  {
    ns;
    driver =
      Workload.Churn.create
        ~seed:(Sim.Prng.derive ~seed ~index:0)
        (Bcp.Netstate.topology ns) params;
    id_offset;
    arrivals = 0;
    admitted = 0;
    blocked = 0;
    departures = 0;
    peak_active = 0;
    accept_ns = Sim.Stats.Sample.create ();
    reject_ns = Sim.Stats.Sample.create ();
  }

let request_of (r : Workload.Generator.request) =
  {
    Bcp.Establish.src = r.src;
    dst = r.dst;
    traffic = r.traffic;
    qos = r.qos;
    backups = r.backups;
    mux_degree = r.mux_degree;
  }

(* One lifecycle event: 'A' admitted, 'B' blocked, 'D' departed, 'd' a
   departure of a connection no longer present. *)
let step c =
  match span "bench.workload.next" (fun () -> Workload.Churn.next c.driver) with
  | Workload.Churn.Arrival { conn; request; _ } -> (
    c.arrivals <- c.arrivals + 1;
    let t0 = Meter.now_ns () in
    let outcome =
      Bcp.Establish.establish c.ns ~conn_id:(conn + c.id_offset)
        (request_of request)
    in
    let d = Meter.now_ns () -. t0 in
    match outcome with
    | Ok _ ->
      Sim.Stats.Sample.add c.accept_ns d;
      c.admitted <- c.admitted + 1;
      Workload.Churn.admit c.driver ~conn;
      c.peak_active <- max c.peak_active (Workload.Churn.active c.driver);
      'A'
    | Error _ ->
      Sim.Stats.Sample.add c.reject_ns d;
      c.blocked <- c.blocked + 1;
      'B')
  | Workload.Churn.Departure { conn; _ } -> (
    c.departures <- c.departures + 1;
    let id = conn + c.id_offset in
    match Bcp.Netstate.find c.ns id with
    | Some _ ->
      span "bench.netstate.remove_dconn" (fun () ->
          Bcp.Netstate.remove_dconn c.ns id);
      'D'
    | None -> 'd')
