(* Tests for the event-driven BCP protocol simulator: failure reporting,
   backup activation (all three schemes), multiplexing failures and
   activation retrial, the recovery-delay bound, soft-state rejoin/repair,
   closure, and priority modes (Sections 4 and 5). *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0
let lambda = 1e-4

let request ?(backups = 1) ?(mux_degree = 1) src dst =
  {
    Bcp.Establish.src;
    dst;
    traffic = bw1;
    qos = Rtchan.Qos.default;
    backups;
    mux_degree;
  }

let establish_exn ns id req =
  match Bcp.Establish.establish ns ~conn_id:id req with
  | Ok c -> c
  | Error e -> Alcotest.failf "establish %d: %a" id Bcp.Establish.pp_reject e

let torus_ns ?(capacity = 10.0) () =
  Bcp.Netstate.create ~lambda (Net.Builders.torus ~rows:4 ~cols:4 ~capacity) ()

let primary_link_id c =
  List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path)

let one_conn_sim ?config ?telemetry ?(src = 0) ?(dst = 5) ?(backups = 1) () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request ~backups src dst) in
  let sim = Bcp.Simnet.create ?config ?telemetry ns in
  (ns, c, sim)

(* (node, channel) of every recorded channel-state transition with
   [cause], in stream order; the run needs [~telemetry:true]. *)
let transitions sim ~cause =
  List.filter_map
    (function
      | _, Sim.Event.Chan_transition { node; channel; cause = c; _ }
        when c = cause ->
        Some (node, channel)
      | _ -> None)
    (Sim.Trace.events (Bcp.Simnet.trace sim))

let find_record sim conn =
  match List.find_opt (fun r -> r.Bcp.Node.conn = conn) (Bcp.Simnet.records sim) with
  | Some r -> r
  | None -> Alcotest.failf "no record for conn %d" conn

(* ---------- protocol ids ---------- *)

let test_cid_roundtrip () =
  let cid = Bcp.Protocol.cid ~conn:1234 ~serial:7 in
  Alcotest.(check int) "conn" 1234 (Bcp.Protocol.conn_of_cid cid);
  Alcotest.(check int) "serial" 7 (Bcp.Protocol.serial_of_cid cid);
  Alcotest.(check bool) "serial bound" true
    (try ignore (Bcp.Protocol.cid ~conn:0 ~serial:64); false
     with Invalid_argument _ -> true)

(* ---------- basic recovery (Scheme 3) ---------- *)

let test_link_failure_full_activation () =
  let _, c, sim = one_conn_sim () in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.run ~until:0.1 sim;
  Bcp.Simnet.finalize sim;
  let r = find_record sim 0 in
  Alcotest.(check bool) "resumed" true (r.Bcp.Node.resumed_at <> None);
  Alcotest.(check (option int)) "recovered via serial 1" (Some 1)
    r.Bcp.Node.recovered_serial;
  Alcotest.(check bool) "fully activated" true
    (Bcp.Node.fully_activated (Bcp.Simnet.node sim) ~conn:0 ~serial:1);
  (* The failed primary is U at the nodes that learned of the failure. *)
  let states = Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:0 ~serial:0 in
  Alcotest.(check bool) "primary unhealthy somewhere" true
    (List.mem Bcp.Protocol.U states)

let test_recovery_within_bound () =
  let ns, c, sim = one_conn_sim ~src:0 ~dst:10 () in
  let cfg = Bcp.Protocol.default_config in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  let r = find_record sim 0 in
  let resumed = Option.get r.Bcp.Node.resumed_at in
  let measured =
    resumed -. r.Bcp.Node.failure_time -. cfg.Bcp.Protocol.detection_latency
  in
  let k =
    List.fold_left
      (fun m b -> max m (Net.Path.hops b.Bcp.Dconn.path))
      (Net.Path.hops c.Bcp.Dconn.primary.Rtchan.Channel.path)
      c.Bcp.Dconn.backups
  in
  let bound =
    Rcc.Bounds.recovery_delay_bound ~k ~backups:1
      ~d_max:cfg.Bcp.Protocol.rcc.Rcc.Transport.d_max
  in
  ignore ns;
  Alcotest.(check bool) "measured within bound" true (measured <= bound +. 1e-9)

let test_failure_near_source_recovers_fast () =
  (* When the failed component is adjacent to the source, the source
     detects it directly: the reporting delay is ~0 (paper, Section 5.3). *)
  let _, c, sim = one_conn_sim ~src:0 ~dst:10 () in
  let cfg = Bcp.Protocol.default_config in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.run ~until:0.1 sim;
  let r = find_record sim 0 in
  let resumed = Option.get r.Bcp.Node.resumed_at in
  Alcotest.(check bool) "immediate resume after detection" true
    (resumed -. 0.01 -. cfg.Bcp.Protocol.detection_latency < 1e-9)

let test_node_failure_and_exclusion () =
  let ns = torus_ns () in
  (* conn 0 transits node 1 (path 0-1-2); conn 1 terminates at node 1. *)
  let c0 = establish_exn ns 0 (request 0 2) in
  let _c1 = establish_exn ns 1 (request 5 1) in
  let mid = List.nth (Net.Path.nodes (Bcp.Netstate.topology ns) c0.Bcp.Dconn.primary.Rtchan.Channel.path) 1 in
  let sim = Bcp.Simnet.create ns in
  Bcp.Simnet.fail_node sim ~at:0.01 mid;
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  (if mid = 1 then begin
     (* conn 1 ends at the dead node: excluded. *)
     let r1 = find_record sim 1 in
     Alcotest.(check bool) "excluded" true r1.Bcp.Node.excluded
   end);
  let r0 = find_record sim 0 in
  Alcotest.(check bool) "transit conn recovered" true
    (r0.Bcp.Node.recovered_serial <> None)

let test_backup_failure_reported_no_disruption () =
  (* Failing a backup-only component must not disrupt service, but both
     end nodes must learn (no record is created; the backup's entries go
     U). *)
  let _, c, sim = one_conn_sim () in
  let b = List.hd c.Bcp.Dconn.backups in
  Bcp.Simnet.fail_link sim ~at:0.01 (List.hd (Net.Path.links b.Bcp.Dconn.path));
  Bcp.Simnet.run ~until:0.1 sim;
  Alcotest.(check int) "no disruption records" 0
    (List.length (Bcp.Simnet.records sim));
  let states = Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:0 ~serial:1 in
  Alcotest.(check bool) "backup unhealthy" true (List.mem Bcp.Protocol.U states)

let test_activation_retrial_second_backup () =
  (* Fail the primary and backup 1 simultaneously: the source must fall
     back to backup 2 (activation retrial, Section 5.3). *)
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request ~backups:2 0 5) in
  let sim = Bcp.Simnet.create ns in
  let b1 = List.hd c.Bcp.Dconn.backups in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.fail_link sim ~at:0.01 (List.hd (Net.Path.links b1.Bcp.Dconn.path));
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  let r = find_record sim 0 in
  Alcotest.(check (option int)) "recovered via serial 2" (Some 2)
    r.Bcp.Node.recovered_serial;
  Alcotest.(check bool) "second fully active" true
    (Bcp.Node.fully_activated (Bcp.Simnet.node sim) ~conn:0 ~serial:2)

let test_spare_pool_drawn () =
  let ns, c, sim = one_conn_sim () in
  let b = List.hd c.Bcp.Dconn.backups in
  let blink = List.hd (Net.Path.links b.Bcp.Dconn.path) in
  let before = Bcp.Node.pool_remaining (Bcp.Simnet.node sim) blink in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.run ~until:0.1 sim;
  ignore ns;
  Alcotest.(check (float 1e-9)) "bw drawn from pool" (before -. 1.0)
    (Bcp.Node.pool_remaining (Bcp.Simnet.node sim) blink)

(* ---------- schemes ---------- *)

let run_scheme ?(fail = `Last) scheme =
  let config = { Bcp.Protocol.default_config with Bcp.Protocol.scheme } in
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 2) in
  let plinks = Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path in
  let target =
    match fail with
    | `Last -> List.nth plinks (List.length plinks - 1)
    | `First -> List.hd plinks
  in
  let sim = Bcp.Simnet.create ~config ns in
  Bcp.Simnet.fail_link sim ~at:0.01 target;
  Bcp.Simnet.run ~until:0.3 sim;
  Bcp.Simnet.finalize sim;
  (sim, find_record sim 0)

let test_scheme1_dst_initiated () =
  let _, r = run_scheme Bcp.Protocol.Scheme1 in
  Alcotest.(check bool) "dst informed" true (r.Bcp.Node.dst_informed <> None);
  Alcotest.(check bool) "recovered" true (r.Bcp.Node.recovered_serial <> None);
  Alcotest.(check bool) "resumed" true (r.Bcp.Node.resumed_at <> None)

let test_scheme2_src_initiated () =
  (* Fail the link adjacent to the source: in Scheme 2 reports only travel
     toward the source, so the (non-adjacent) destination never learns. *)
  let _, r = run_scheme ~fail:`First Bcp.Protocol.Scheme2 in
  Alcotest.(check bool) "src informed" true (r.Bcp.Node.src_informed <> None);
  Alcotest.(check bool) "dst NOT informed (scheme 2)" true
    (r.Bcp.Node.dst_informed = None);
  Alcotest.(check bool) "recovered" true (r.Bcp.Node.recovered_serial <> None)

let test_scheme3_both_informed () =
  let _, r = run_scheme Bcp.Protocol.Scheme3 in
  Alcotest.(check bool) "src informed" true (r.Bcp.Node.src_informed <> None);
  Alcotest.(check bool) "dst informed" true (r.Bcp.Node.dst_informed <> None);
  Alcotest.(check bool) "recovered" true (r.Bcp.Node.recovered_serial <> None)

let test_scheme2_resumes_faster_than_scheme1 () =
  (* With the failure near the destination, the source-initiated scheme
     resumes no later than the destination-initiated one (Section 4.2). *)
  let _, r1 = run_scheme Bcp.Protocol.Scheme1 in
  let _, r2 = run_scheme Bcp.Protocol.Scheme2 in
  let t1 = Option.get r1.Bcp.Node.resumed_at in
  let t2 = Option.get r2.Bcp.Node.resumed_at in
  Alcotest.(check bool) "scheme2 <= scheme1" true (t2 <= t1 +. 1e-12)

(* ---------- multiplexing failure & preemption (bottleneck net) ---------- *)

(* Same forced-bottleneck construction as in test_recovery, with duplex
   links so RCC reports can travel against the data direction. *)
let bottleneck_duplex () =
  let topo = Net.Topology.create ~num_nodes:6 in
  let s1 = 0 and s2 = 1 and d1 = 2 and d2 = 3 and x = 4 and y = 5 in
  let add a b = ignore (Net.Topology.add_duplex topo ~a ~b ~capacity:10.0) in
  add s1 d1;
  add s2 d2;
  add s1 x;
  add s2 x;
  add x y;
  add y d1;
  add y d2;
  (topo, (s1, s2, d1, d2, x, y))

let test_mux_failure_event_driven () =
  let topo, (s1, s2, d1, d2, x, y) = bottleneck_duplex () in
  let ns = Bcp.Netstate.create ~lambda topo () in
  let a = establish_exn ns 0 (request ~mux_degree:1 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:1 s2 d2) in
  let xy = Option.get (Net.Topology.find_link topo ~src:x ~dst:y) in
  Alcotest.(check (float 1e-9)) "spare 1 at bottleneck" 1.0
    (Rtchan.Resource.spare (Bcp.Netstate.resources ns) xy);
  let sim = Bcp.Simnet.create ns in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id a);
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id b);
  Bcp.Simnet.run ~until:0.3 sim;
  Bcp.Simnet.finalize sim;
  let ra = find_record sim 0 and rb = find_record sim 1 in
  let winners =
    List.length
      (List.filter (fun r -> r.Bcp.Node.recovered_serial <> None) [ ra; rb ])
  in
  Alcotest.(check int) "exactly one wins the pool" 1 winners;
  Alcotest.(check (float 1e-9)) "pool empty" 0.0 (Bcp.Node.pool_remaining (Bcp.Simnet.node sim) xy)

let test_preemption_lets_high_priority_win () =
  let topo, (s1, s2, d1, d2, x, y) = bottleneck_duplex () in
  let ns = Bcp.Netstate.create ~lambda topo () in
  (* conn 0: low priority (degree 6); conn 1: high priority (degree 1).
     Fail conn 0's primary slightly earlier so its backup grabs the pool
     first, then the high-priority activation must preempt it. *)
  let a = establish_exn ns 0 (request ~mux_degree:6 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:1 s2 d2) in
  let config =
    { Bcp.Protocol.default_config with Bcp.Protocol.priority = Bcp.Protocol.Preemptive }
  in
  let xy = Option.get (Net.Topology.find_link topo ~src:x ~dst:y) in
  let sim = Bcp.Simnet.create ~config ~telemetry:true ns in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id a);
  Bcp.Simnet.fail_link sim ~at:0.05 (primary_link_id b);
  Bcp.Simnet.run ~until:0.4 sim;
  Bcp.Simnet.finalize sim;
  let rb = find_record sim 1 in
  Alcotest.(check bool) "high priority recovered" true
    (rb.Bcp.Node.recovered_serial <> None);
  Alcotest.(check bool) "preemption recorded" true
    (transitions sim ~cause:"preempt" <> []);
  ignore xy

let test_delayed_activation_orders_contenders () =
  let topo, (s1, s2, d1, d2, _, _) = bottleneck_duplex () in
  let ns = Bcp.Netstate.create ~lambda topo () in
  (* Simultaneous failures; the degree-1 connection's activation goes out
     after 1 slot, the degree-6 one after 6 slots: the high-priority
     connection must win the bottleneck. *)
  let a = establish_exn ns 0 (request ~mux_degree:6 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:1 s2 d2) in
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.priority = Bcp.Protocol.Delayed_activation 5e-3;
    }
  in
  let sim = Bcp.Simnet.create ~config ns in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id a);
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id b);
  Bcp.Simnet.run ~until:0.4 sim;
  Bcp.Simnet.finalize sim;
  let ra = find_record sim 0 and rb = find_record sim 1 in
  Alcotest.(check bool) "high priority wins" true
    (rb.Bcp.Node.recovered_serial <> None);
  Alcotest.(check bool) "low priority mux-failed" true
    (ra.Bcp.Node.recovered_serial = None)

(* ---------- rejoin / repair / closure ---------- *)

let test_repair_before_timer_restores_backup () =
  (* Repair the failed component well before the rejoin timer expires: the
     damaged primary must come back as a backup (state B everywhere). *)
  let config =
    { Bcp.Protocol.default_config with Bcp.Protocol.rejoin_timeout = 1.0 }
  in
  let _, c, sim = one_conn_sim ~config ~telemetry:true () in
  let flink = primary_link_id c in
  Bcp.Simnet.fail_link sim ~at:0.01 flink;
  Bcp.Simnet.repair_link sim ~at:0.1 flink;
  Bcp.Simnet.run ~until:3.0 sim;
  let states = Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:0 ~serial:0 in
  Alcotest.(check bool) "all B (repaired into backup)" true
    (List.for_all (fun s -> s = Bcp.Protocol.B) states);
  Alcotest.(check bool) "rejoin happened" true
    (transitions sim ~cause:"rejoin" <> [])

let test_no_repair_times_out_to_n () =
  let config =
    { Bcp.Protocol.default_config with Bcp.Protocol.rejoin_timeout = 0.2 }
  in
  let _, c, sim = one_conn_sim ~config () in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.run ~until:2.0 sim;
  let states = Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:0 ~serial:0 in
  Alcotest.(check bool) "torn down everywhere informed" true
    (List.for_all (fun s -> s = Bcp.Protocol.N) states)

let test_late_repair_triggers_closure () =
  (* Repair after the rejoin timers expired: the rejoin (if any) must be
     answered by a closure, ending with the channel at N, not B. *)
  let config =
    { Bcp.Protocol.default_config with Bcp.Protocol.rejoin_timeout = 0.1 }
  in
  let _, c, sim = one_conn_sim ~config () in
  let flink = primary_link_id c in
  Bcp.Simnet.fail_link sim ~at:0.01 flink;
  Bcp.Simnet.repair_link sim ~at:1.0 flink;
  Bcp.Simnet.run ~until:3.0 sim;
  let states = Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:0 ~serial:0 in
  Alcotest.(check bool) "still gone" true
    (List.for_all (fun s -> s = Bcp.Protocol.N) states)

let test_closure_on_late_rejoin () =
  (* Figure 6: the rejoin message arrives at a node whose rejoin timer has
     already expired; that node undoes the repair with a closure toward
     the destination.  Built on a 7-node line (no backups needed — the
     rejoin machinery repairs any channel): timers near the source expire
     earlier than near the destination, and the component repairs just in
     time for the destination to answer but too late for the upstream
     nodes to still be waiting. *)
  let topo = Net.Builders.line ~nodes:7 ~capacity:10.0 in
  let ns = Bcp.Netstate.create topo () in
  let _ =
    establish_exn ns 0
      {
        Bcp.Establish.src = 0;
        dst = 6;
        traffic = bw1;
        qos = Rtchan.Qos.default;
        backups = 0;
        mux_degree = 0;
      }
  in
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rejoin_timeout = 8e-3;
      rejoin_retry = 1e-3;
      best_effort_delay = 1e-3;
    }
  in
  let sim = Bcp.Simnet.create ~config ~telemetry:true ns in
  (* The primary's 4th link (between nodes 3 and 4). *)
  let c = Option.get (Bcp.Netstate.find ns 0) in
  let l34 = List.nth (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) 3 in
  Bcp.Simnet.fail_link sim ~at:0.010 l34;
  Bcp.Simnet.repair_link sim ~at:0.013 l34;
  Bcp.Simnet.run ~until:0.2 sim;
  Alcotest.(check bool) "closure fired" true
    (transitions sim ~cause:"closure" <> []);
  let states = Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:0 ~serial:0 in
  Alcotest.(check bool) "channel fully closed" true
    (List.for_all (fun st -> st = Bcp.Protocol.N) states)

let test_reconfigure_netstate_marks_backup_broken () =
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rejoin_timeout = 0.1;
      reconfigure_netstate = true;
    }
  in
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let b = List.hd c.Bcp.Dconn.backups in
  let sim = Bcp.Simnet.create ~config ns in
  (* Fail the backup; after timeout the netstate reconfigures. *)
  Bcp.Simnet.fail_link sim ~at:0.01 (List.hd (Net.Path.links b.Bcp.Dconn.path));
  Bcp.Simnet.run ~until:1.0 sim;
  Alcotest.(check bool) "backup marked broken" true
    (b.Bcp.Dconn.state = Bcp.Dconn.Broken);
  (* Its multiplexing registrations are gone. *)
  List.iter
    (fun l ->
      Alcotest.(check bool) "unregistered" false
        (Bcp.Mux.mem (Bcp.Netstate.mux ns) ~link:l ~backup:b.Bcp.Dconn.bid))
    (Net.Path.links b.Bcp.Dconn.path)

(* ---------- RCC usage ---------- *)

let test_rcc_counters_move () =
  let _, c, sim = one_conn_sim ~src:0 ~dst:10 () in
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c);
  Bcp.Simnet.run ~until:0.2 sim;
  Alcotest.(check bool) "rcc sent" true (Bcp.Simnet.rcc_messages_sent sim > 0);
  Alcotest.(check bool) "ctrl delivered" true
    (Bcp.Simnet.control_messages_delivered sim > 0)

let test_duplicate_failures_single_report_processing () =
  (* Failing two links of the same primary yields reports from both sides,
     but each node processes the channel failure once (state U via one
     transition, duplicates ignored). *)
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 10) in
  let plinks = Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path in
  if List.length plinks >= 2 then begin
    let sim = Bcp.Simnet.create ns in
    Bcp.Simnet.fail_link sim ~at:0.01 (List.nth plinks 0);
    Bcp.Simnet.fail_link sim ~at:0.01 (List.nth plinks (List.length plinks - 1));
    Bcp.Simnet.run ~until:0.2 sim;
    Bcp.Simnet.finalize sim;
    let r = find_record sim 0 in
    Alcotest.(check bool) "still recovers" true (r.Bcp.Node.recovered_serial <> None);
    (* Exactly one activation committed at the source. *)
    Alcotest.(check int) "single activation" 1 (List.length r.Bcp.Node.activations)
  end

(* ---------- shared channel template ---------- *)

(* A loaded 4x4 torus: 24 connections, some with two backups, so most
   nodes hold many channel entries. *)
let loaded_ns () =
  let ns = torus_ns ~capacity:40.0 () in
  for i = 0 to 23 do
    let src = i mod 16 and dst = ((i * 7) + 5) mod 16 in
    if src <> dst then
      ignore
        (Bcp.Establish.establish ns ~conn_id:i
           (request ~backups:(1 + (i mod 2)) ~mux_degree:3 src dst))
  done;
  ns

let sorted_conns ns =
  List.sort
    (fun a b -> Int.compare a.Bcp.Dconn.id b.Bcp.Dconn.id)
    (Bcp.Netstate.dconns ns)

(* Every channel the netstate has ever given a serial: primaries and all
   backups, whatever their state. *)
let channels ns =
  List.concat_map
    (fun c ->
      (c.Bcp.Dconn.id, 0)
      :: List.map
           (fun b -> (c.Bcp.Dconn.id, b.Bcp.Dconn.serial))
           c.Bcp.Dconn.backups)
    (sorted_conns ns)

(* The link the most channels cross. *)
let busiest_link ns =
  let topo = Bcp.Netstate.topology ns in
  let load = Array.make (Net.Topology.num_links topo) 0 in
  List.iter
    (fun c ->
      let paths =
        c.Bcp.Dconn.primary.Rtchan.Channel.path
        :: List.map (fun b -> b.Bcp.Dconn.path) c.Bcp.Dconn.backups
      in
      List.iter
        (fun p ->
          List.iter (fun l -> load.(l) <- load.(l) + 1) (Net.Path.links p))
        paths)
    (Bcp.Netstate.dconns ns);
  let best = ref 0 in
  Array.iteri (fun l n -> if n > load.(!best) then best := l) load;
  !best

type observed = {
  records : Bcp.Simnet.record list;
  states : ((int * int) * Bcp.Protocol.chan_state list) list;
  pools : float list;
  events : (float * Sim.Event.t) list;
}

let observe ns sim =
  Bcp.Simnet.finalize sim;
  {
    records = Bcp.Simnet.records sim;
    states =
      List.map
        (fun (conn, serial) ->
          ((conn, serial), Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn ~serial))
        (channels ns);
    pools =
      List.init
        (Net.Topology.num_links (Bcp.Netstate.topology ns))
        (Bcp.Node.pool_remaining (Bcp.Simnet.node sim));
    events = Sim.Trace.events (Bcp.Simnet.trace sim);
  }

let check_same what a b =
  Alcotest.(check bool) (what ^ ": records") true (a.records = b.records);
  Alcotest.(check bool) (what ^ ": channel states") true (a.states = b.states);
  Alcotest.(check (list (float 0.0))) (what ^ ": pools") a.pools b.pools;
  Alcotest.(check int)
    (what ^ ": event count") (List.length a.events) (List.length b.events);
  Alcotest.(check bool) (what ^ ": events") true (a.events = b.events)

let start ns comps =
  let sim = Bcp.Simnet.create ~telemetry:true ns in
  List.iter
    (function
      | Net.Component.Link l -> Bcp.Simnet.fail_link sim ~at:0.01 l
      | Net.Component.Node v -> Bcp.Simnet.fail_node sim ~at:0.01 v)
    comps;
  sim

let episode ns comps =
  let sim = start ns comps in
  Bcp.Simnet.run ~until:0.3 sim;
  observe ns sim

let scenario_a ns = [ Net.Component.Link (busiest_link ns) ]
let scenario_b = [ Net.Component.Node 5 ]

let test_template_aba () =
  let ns = loaded_ns () in
  let a1 = episode ns (scenario_a ns) in
  Alcotest.(check bool) "episode A recovers something" true
    (List.exists (fun r -> r.Bcp.Node.recovered_serial <> None) a1.records);
  let b = episode ns scenario_b in
  Alcotest.(check bool) "episode B changes other state" true
    (b.states <> a1.states);
  let a2 = episode ns (scenario_a ns) in
  check_same "A after B" a1 a2

let test_two_live_sims () =
  let ns = loaded_ns () in
  let sa = start ns (scenario_a ns) and sb = start ns scenario_b in
  List.iter
    (fun until ->
      Bcp.Simnet.run ~until sa;
      Bcp.Simnet.run ~until sb)
    [ 0.0101; 0.0105; 0.012; 0.02; 0.3 ];
  let a = observe ns sa and b = observe ns sb in
  check_same "A interleaved" (episode ns (scenario_a ns)) a;
  check_same "B interleaved" (episode ns scenario_b) b

(* What a simulation built from scratch sees: primaries P and standby
   backups B at every node of their paths, every other channel N, and
   the netstate's own spare pools. *)
let check_matches_netstate what ns =
  let sim = Bcp.Simnet.create ns in
  List.iter
    (fun c ->
      let expect serial path st =
        let n = List.length (Net.Path.nodes (Bcp.Netstate.topology ns) path) in
        Alcotest.(check bool)
          (Printf.sprintf "%s: conn %d serial %d" what c.Bcp.Dconn.id serial)
          true
          (Bcp.Node.state_of (Bcp.Simnet.node sim) ~conn:c.Bcp.Dconn.id ~serial
          = List.init n (fun _ -> st))
      in
      expect 0 c.Bcp.Dconn.primary.Rtchan.Channel.path Bcp.Protocol.P;
      List.iter
        (fun b ->
          expect b.Bcp.Dconn.serial b.Bcp.Dconn.path
            (if b.Bcp.Dconn.state = Bcp.Dconn.Standby then Bcp.Protocol.B
             else Bcp.Protocol.N))
        c.Bcp.Dconn.backups)
    (sorted_conns ns);
  let res = Bcp.Netstate.resources ns in
  for l = 0 to Net.Topology.num_links (Bcp.Netstate.topology ns) - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%s: pool of link %d" what l)
      (Rtchan.Resource.spare res l)
      (Bcp.Node.pool_remaining (Bcp.Simnet.node sim) l)
  done

let template_builds f =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Fun.protect ~finally:Sim.Prof.disable f;
  Option.value ~default:0
    (List.assoc_opt "simnet.template_builds"
       (Sim.Prof.report ()).Sim.Prof.counters)

let write_back ns =
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rejoin_timeout = 0.05;
      reconfigure_netstate = true;
    }
  in
  let sim = Bcp.Simnet.create ~config ns in
  Bcp.Simnet.fail_link sim ~at:0.01 (busiest_link ns);
  Bcp.Simnet.run ~until:1.0 sim;
  Alcotest.(check bool) "a backup was written back broken" true
    (List.exists
       (fun c ->
         List.exists
           (fun b -> b.Bcp.Dconn.state = Bcp.Dconn.Broken)
           c.Bcp.Dconn.backups)
       (Bcp.Netstate.dconns ns))

let commit ns =
  let failed = [ Net.Component.Link (busiest_link ns) ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  ignore (Bcp.Reconfig.commit ns ~failed ~result)

let establish ns = ignore (establish_exn ns 100 (request ~backups:2 1 11))

let remove ns =
  Alcotest.(check bool) "conn 3 established" true
    (Bcp.Netstate.find ns 3 <> None);
  Bcp.Netstate.remove_dconn ns 3

(* After each kind of network change, a new simulation must see the
   changed network: it matches the netstate itself, and it replays like
   a simulation over the same network rebuilt from scratch (a distinct
   netstate, so no template of it was ever cached). *)
let test_template_invalidation () =
  List.iter
    (fun (what, change) ->
      let ns = loaded_ns () in
      Alcotest.(check int) (what ^ ": built once, then reused") 1
        (template_builds (fun () ->
             ignore (episode ns (scenario_a ns));
             ignore (Bcp.Simnet.create ns)));
      change ns;
      Alcotest.(check int) (what ^ ": rebuilt once after the change") 1
        (template_builds (fun () ->
             ignore (Bcp.Simnet.create ns);
             ignore (Bcp.Simnet.create ns)));
      check_matches_netstate what ns;
      let scratch = loaded_ns () in
      change scratch;
      check_same what
        (episode scratch (scenario_a scratch))
        (episode ns (scenario_a ns)))
    [
      ("establish", establish);
      ("remove_dconn", remove);
      ("Reconfig.commit", commit);
      ("write-back", write_back);
    ]

(* [detect] visits a node's channels in the order the pre-template
   simulator's per-node table folded them: a [Hashtbl.create 64] filled
   by [Hashtbl.replace] in [Netstate.dconns] order, primary then standby
   backups.  Recovery times depend on that order. *)
let test_detect_order () =
  let ns = loaded_ns () in
  let topo = Bcp.Netstate.topology ns in
  let link = busiest_link ns in
  let node = (Net.Topology.link topo link).Net.Topology.src in
  let tbl = Hashtbl.create 64 and inserted = ref [] in
  let add conn serial path =
    if List.mem node (Net.Path.nodes topo path) then begin
      let cid = Bcp.Protocol.cid ~conn ~serial in
      Hashtbl.replace tbl cid ();
      inserted := cid :: !inserted
    end
  in
  List.iter
    (fun c ->
      add c.Bcp.Dconn.id 0 c.Bcp.Dconn.primary.Rtchan.Channel.path;
      List.iter
        (fun b ->
          if b.Bcp.Dconn.state = Bcp.Dconn.Standby then
            add c.Bcp.Dconn.id b.Bcp.Dconn.serial b.Bcp.Dconn.path)
        c.Bcp.Dconn.backups)
    (Bcp.Netstate.dconns ns);
  let folded = Hashtbl.fold (fun cid () acc -> cid :: acc) tbl [] in
  let sim = Bcp.Simnet.create ~telemetry:true ns in
  Bcp.Simnet.fail_link sim ~at:0.01 link;
  Bcp.Simnet.run ~until:0.3 sim;
  let detected =
    List.filter_map
      (fun (n, cid) -> if n = node then Some cid else None)
      (transitions sim ~cause:"detect")
  in
  let expected = List.filter (fun cid -> List.mem cid detected) folded in
  Alcotest.(check bool) "several channels detected" true
    (List.length detected >= 3);
  Alcotest.(check bool) "fold order is not insertion order" true
    (expected
    <> List.filter (fun cid -> List.mem cid detected) (List.rev !inserted));
  Alcotest.(check (list int)) "detect order" expected detected

let () =
  Alcotest.run "simnet"
    [
      ("protocol", [ Alcotest.test_case "cid roundtrip" `Quick test_cid_roundtrip ]);
      ( "recovery",
        [
          Alcotest.test_case "full activation" `Quick test_link_failure_full_activation;
          Alcotest.test_case "within bound" `Quick test_recovery_within_bound;
          Alcotest.test_case "near-source fast" `Quick
            test_failure_near_source_recovers_fast;
          Alcotest.test_case "node failure + exclusion" `Quick
            test_node_failure_and_exclusion;
          Alcotest.test_case "backup failure only" `Quick
            test_backup_failure_reported_no_disruption;
          Alcotest.test_case "activation retrial" `Quick
            test_activation_retrial_second_backup;
          Alcotest.test_case "spare pool drawn" `Quick test_spare_pool_drawn;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "scheme 1" `Quick test_scheme1_dst_initiated;
          Alcotest.test_case "scheme 2" `Quick test_scheme2_src_initiated;
          Alcotest.test_case "scheme 3" `Quick test_scheme3_both_informed;
          Alcotest.test_case "scheme 2 faster than 1" `Quick
            test_scheme2_resumes_faster_than_scheme1;
        ] );
      ( "contention",
        [
          Alcotest.test_case "mux failure" `Quick test_mux_failure_event_driven;
          Alcotest.test_case "preemption" `Quick
            test_preemption_lets_high_priority_win;
          Alcotest.test_case "delayed activation" `Quick
            test_delayed_activation_orders_contenders;
        ] );
      ( "rejoin",
        [
          Alcotest.test_case "repair before timer" `Quick
            test_repair_before_timer_restores_backup;
          Alcotest.test_case "timeout to N" `Quick test_no_repair_times_out_to_n;
          Alcotest.test_case "late repair closure" `Quick
            test_late_repair_triggers_closure;
          Alcotest.test_case "closure on late rejoin (Fig 6)" `Quick
            test_closure_on_late_rejoin;
          Alcotest.test_case "netstate reconfiguration" `Quick
            test_reconfigure_netstate_marks_backup_broken;
        ] );
      ( "rcc",
        [
          Alcotest.test_case "counters" `Quick test_rcc_counters_move;
          Alcotest.test_case "duplicate reports" `Quick
            test_duplicate_failures_single_report_processing;
        ] );
      ( "template",
        [
          Alcotest.test_case "A-B-A reuse" `Quick test_template_aba;
          Alcotest.test_case "two live sims" `Quick test_two_live_sims;
          Alcotest.test_case "invalidation" `Quick test_template_invalidation;
          Alcotest.test_case "detect order" `Quick test_detect_order;
        ] );
    ]
