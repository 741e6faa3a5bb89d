(* Tests for the message-level data plane (Figure 8 behaviour): lossless
   delivery on a healthy network, bounded loss around a failure, loss
   classification, and the link transmitter model. *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0

let request ?(backups = 1) ?(mux_degree = 3) src dst =
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
  | Error e -> Alcotest.failf "establish: %a" Bcp.Establish.pp_reject e

let setup () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  let c = establish_exn ns 0 (request 0 10) in
  (ns, c)

(* ---------- Link_scheduler ---------- *)

let test_scheduler_idle_link () =
  let s = Rtchan.Link_scheduler.create ~capacity:8.0 in
  (* 8000 bits at 8 Mbps = 1 ms *)
  Alcotest.(check (float 1e-12)) "first departs after tx" 1e-3
    (Rtchan.Link_scheduler.enqueue s ~now:0.0 ~bits:8000);
  (* Arriving later on an idle link: no queueing. *)
  Alcotest.(check (float 1e-12)) "no queueing when idle" 11e-3
    (Rtchan.Link_scheduler.enqueue s ~now:10e-3 ~bits:8000)

let test_scheduler_queueing () =
  let s = Rtchan.Link_scheduler.create ~capacity:8.0 in
  ignore (Rtchan.Link_scheduler.enqueue s ~now:0.0 ~bits:8000);
  (* Second message arrives while the first transmits: it queues. *)
  Alcotest.(check (float 1e-12)) "queued behind first" 2e-3
    (Rtchan.Link_scheduler.enqueue s ~now:0.5e-3 ~bits:8000);
  Alcotest.(check (float 1e-12)) "busy_until" 2e-3 (Rtchan.Link_scheduler.busy_until s);
  Alcotest.(check int) "bits" 16000 (Rtchan.Link_scheduler.transmitted_bits s);
  Alcotest.(check (float 1e-9)) "utilization" 0.2
    (Rtchan.Link_scheduler.utilization s ~horizon:10e-3)

let test_scheduler_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "capacity" true
    (raises (fun () -> ignore (Rtchan.Link_scheduler.create ~capacity:0.0)));
  let s = Rtchan.Link_scheduler.create ~capacity:1.0 in
  Alcotest.(check bool) "bits" true
    (raises (fun () -> ignore (Rtchan.Link_scheduler.enqueue s ~now:0.0 ~bits:0)))

(* ---------- Dataplane ---------- *)

let test_lossless_when_healthy () =
  let _, c = setup () in
  let ns = Bcp.Netstate.create (Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0) () in
  ignore c;
  let c = establish_exn ns 0 (request 0 10) in
  let sim = Bcp.Simnet.create ns in
  let dp = Bcp.Dataplane.attach sim in
  Bcp.Dataplane.stream dp ~conn:c.Bcp.Dconn.id ~rate:1000.0 ~start:0.0 ~stop:0.1 ();
  Bcp.Simnet.run ~until:0.2 sim;
  let st = Bcp.Dataplane.stats dp ~conn:c.Bcp.Dconn.id in
  Alcotest.(check int) "sent 100" 100 st.Bcp.Dataplane.sent;
  Alcotest.(check int) "all delivered" 100 st.Bcp.Dataplane.delivered;
  Alcotest.(check int) "no loss" 0 (Bcp.Dataplane.loss_count st);
  (* Latency is positive and far below a millisecond per hop here. *)
  let mean = Sim.Stats.Sample.mean st.Bcp.Dataplane.latencies in
  Alcotest.(check bool) "latency sane" true (mean > 0.0 && mean < 1e-2)

let test_loss_bounded_around_failure () =
  let ns, c = setup () in
  let sim = Bcp.Simnet.create ns in
  let dp = Bcp.Dataplane.attach sim in
  let rate = 2000.0 in
  Bcp.Dataplane.stream dp ~conn:c.Bcp.Dconn.id ~rate ~start:0.0 ~stop:0.1 ();
  let link = List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) in
  Bcp.Simnet.fail_link sim ~at:0.05 link;
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  let st = Bcp.Dataplane.stats dp ~conn:c.Bcp.Dconn.id in
  let lost = Bcp.Dataplane.loss_count st in
  Alcotest.(check bool) "some loss" true (lost > 0);
  (* Loss is confined to the recovery window: disruption ≈ detection
     latency here (failure adjacent to source), so a handful of messages
     at 2000/s. *)
  Alcotest.(check bool) "bounded loss" true (lost <= 10);
  Alcotest.(check int) "conservation" st.Bcp.Dataplane.sent
    (st.Bcp.Dataplane.delivered + lost);
  (* Stream recovered: the last message goes through on the backup. *)
  Alcotest.(check bool) "resumed" true
    (st.Bcp.Dataplane.delivered > st.Bcp.Dataplane.sent / 2)

let test_loss_window_matches_disruption () =
  let ns, c = setup () in
  let plinks = Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path in
  let far_link = List.nth plinks (List.length plinks - 1) in
  let sim = Bcp.Simnet.create ns in
  let dp = Bcp.Dataplane.attach sim in
  Bcp.Dataplane.stream dp ~conn:c.Bcp.Dconn.id ~rate:5000.0 ~start:0.0 ~stop:0.1 ();
  Bcp.Simnet.fail_link sim ~at:0.05 far_link;
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  let st = Bcp.Dataplane.stats dp ~conn:c.Bcp.Dconn.id in
  let record =
    List.find (fun r -> r.Bcp.Node.conn = c.Bcp.Dconn.id) (Bcp.Simnet.records sim)
  in
  let disruption =
    Option.get record.Bcp.Node.resumed_at -. record.Bcp.Node.failure_time
  in
  (match (st.Bcp.Dataplane.first_loss, st.Bcp.Dataplane.last_loss) with
  | Some first, Some last ->
    (* Lost sends start before the failure (in-flight toward it) and end
       by the time the source resumes. *)
    Alcotest.(check bool) "first lost sent near failure" true
      (first <= 0.05 +. 1e-9);
    Alcotest.(check bool) "last lost before resumption (+1 period)" true
      (last <= 0.05 +. disruption +. (1.0 /. 5000.0) +. 1e-9)
  | _ -> Alcotest.fail "losses expected");
  Alcotest.(check bool) "loss roughly disruption*rate" true
    (float_of_int (Bcp.Dataplane.loss_count st)
    <= ((disruption +. 2e-3) *. 5000.0) +. 2.0)

let test_no_channel_period_classified () =
  (* Fail primary AND backup: after detection the source has nothing; all
     subsequent sends are classified lost_no_channel. *)
  let ns, c = setup () in
  let b = List.hd c.Bcp.Dconn.backups in
  let sim = Bcp.Simnet.create ns in
  let dp = Bcp.Dataplane.attach sim in
  Bcp.Dataplane.stream dp ~conn:c.Bcp.Dconn.id ~rate:1000.0 ~start:0.0 ~stop:0.1 ();
  Bcp.Simnet.fail_link sim ~at:0.02
    (List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path));
  Bcp.Simnet.fail_link sim ~at:0.02 (List.hd (Net.Path.links b.Bcp.Dconn.path));
  Bcp.Simnet.run ~until:0.2 sim;
  let st = Bcp.Dataplane.stats dp ~conn:c.Bcp.Dconn.id in
  Alcotest.(check bool) "mostly no-channel loss" true
    (st.Bcp.Dataplane.lost_no_channel > 70);
  Alcotest.(check int) "conservation" st.Bcp.Dataplane.sent
    (st.Bcp.Dataplane.delivered + Bcp.Dataplane.loss_count st)

let test_stream_validation () =
  let ns, c = setup () in
  let sim = Bcp.Simnet.create ns in
  let dp = Bcp.Dataplane.attach sim in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unknown conn" true
    (raises (fun () -> Bcp.Dataplane.stream dp ~conn:999 ~rate:1.0 ~start:0.0 ~stop:1.0 ()));
  Alcotest.(check bool) "bad rate" true
    (raises (fun () ->
         Bcp.Dataplane.stream dp ~conn:c.Bcp.Dconn.id ~rate:0.0 ~start:0.0 ~stop:1.0 ()));
  Alcotest.(check bool) "empty interval" true
    (raises (fun () ->
         Bcp.Dataplane.stream dp ~conn:c.Bcp.Dconn.id ~rate:1.0 ~start:1.0 ~stop:1.0 ()))

let test_multiple_streams () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  let c1 = establish_exn ns 0 (request 0 10) in
  let c2 = establish_exn ns 1 (request 3 12) in
  let sim = Bcp.Simnet.create ns in
  let dp = Bcp.Dataplane.attach sim in
  Bcp.Dataplane.stream dp ~conn:c1.Bcp.Dconn.id ~rate:500.0 ~start:0.0 ~stop:0.1 ();
  Bcp.Dataplane.stream dp ~conn:c2.Bcp.Dconn.id ~rate:500.0 ~start:0.0 ~stop:0.1 ();
  Bcp.Simnet.run ~until:0.2 sim;
  List.iter
    (fun c ->
      let st = Bcp.Dataplane.stats dp ~conn:c.Bcp.Dconn.id in
      Alcotest.(check int) "own record" c.Bcp.Dconn.id st.Bcp.Dataplane.conn;
      Alcotest.(check int) "each lossless" 0 (Bcp.Dataplane.loss_count st);
      Alcotest.(check int) "each complete" 50 st.Bcp.Dataplane.delivered)
    [ c1; c2 ]

let () =
  Alcotest.run "dataplane"
    [
      ( "scheduler",
        [
          Alcotest.test_case "idle link" `Quick test_scheduler_idle_link;
          Alcotest.test_case "queueing" `Quick test_scheduler_queueing;
          Alcotest.test_case "validation" `Quick test_scheduler_validation;
        ] );
      ( "streams",
        [
          Alcotest.test_case "lossless when healthy" `Quick test_lossless_when_healthy;
          Alcotest.test_case "bounded loss at failure" `Quick
            test_loss_bounded_around_failure;
          Alcotest.test_case "loss window = disruption" `Quick
            test_loss_window_matches_disruption;
          Alcotest.test_case "no-channel classification" `Quick
            test_no_channel_period_classified;
          Alcotest.test_case "validation" `Quick test_stream_validation;
          Alcotest.test_case "multiple streams" `Quick test_multiple_streams;
        ] );
    ]
