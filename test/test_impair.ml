(* Tests for the control-plane fault-injection layer: the Failures.Impair
   model, the impaired RCC transport (loss/dup/jitter on data AND acks,
   bounded dedup state), the heartbeat failure detector, parity of the
   zero-impairment path with the legacy oracle pipeline, and the chaos
   evaluation harness. *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0
let lambda = 1e-4

let report ch =
  Rcc.Control.Failure_report { channel = ch; component = Net.Component.Link 0 }

(* ---------- Impair model ---------- *)

let test_impair_perfect_is_transparent () =
  let imp = Failures.Impair.create ~seed:1 () in
  for i = 0 to 9 do
    Alcotest.(check (list (float 0.0)))
      "one on-time copy" [ 0.0 ]
      (Failures.Impair.decide imp ~link:i ~dir:`Data ~bytes:16
         ~now:(float_of_int i))
  done;
  Alcotest.(check int) "no drops" 0 (Failures.Impair.drops imp)

let test_impair_loss_and_gray () =
  let imp =
    Failures.Impair.create ~seed:2
      ~default:(Failures.Impair.make ~loss:1.0 ()) ()
  in
  Failures.Impair.set_link imp ~link:7 (Failures.Impair.make ~gray:true ());
  Alcotest.(check (list (float 0.0))) "total loss drops" []
    (Failures.Impair.decide imp ~link:0 ~dir:`Data ~bytes:16 ~now:0.0);
  Alcotest.(check (list (float 0.0))) "gray drops" []
    (Failures.Impair.decide imp ~link:7 ~dir:`Ack ~bytes:8 ~now:0.0);
  Alcotest.(check int) "both counted" 2 (Failures.Impair.drops imp)

let test_impair_flap_schedule () =
  let flap = Failures.Impair.flapping ~up:0.01 ~down:0.02 () in
  let imp =
    Failures.Impair.create ~seed:3 ~default:(Failures.Impair.make ~flap ()) ()
  in
  let decide now =
    Failures.Impair.decide imp ~link:0 ~dir:`Data ~bytes:16 ~now
  in
  Alcotest.(check (list (float 0.0))) "up window passes" [ 0.0 ] (decide 0.005);
  Alcotest.(check (list (float 0.0))) "down window drops" [] (decide 0.02);
  Alcotest.(check (list (float 0.0))) "next cycle up again" [ 0.0 ] (decide 0.031)

let test_impair_dup () =
  let imp =
    Failures.Impair.create ~seed:4
      ~default:(Failures.Impair.make ~dup:1.0 ~jitter:1e-4 ()) ()
  in
  let copies =
    Failures.Impair.decide imp ~link:0 ~dir:`Data ~bytes:16 ~now:0.0
  in
  Alcotest.(check int) "two copies" 2 (List.length copies);
  List.iter
    (fun d ->
      Alcotest.(check bool) "jitter within bound" true (d >= 0.0 && d <= 1e-4))
    copies

let test_impair_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "loss > 1" true
    (bad (fun () -> Failures.Impair.make ~loss:1.5 ()));
  Alcotest.(check bool) "negative jitter" true
    (bad (fun () -> Failures.Impair.make ~jitter:(-1.0) ()));
  Alcotest.(check bool) "zero flap" true
    (bad (fun () ->
         Failures.Impair.make
           ~flap:(Failures.Impair.flapping ~up:0.0 ~down:1.0 ()) ()))

(* ---------- impaired transport ---------- *)

let make_transport ?impair ?(params = Rcc.Transport.default_params) () =
  let engine = Sim.Engine.create () in
  let received = ref [] in
  let tr =
    Rcc.Transport.create engine ~params ~link:0 ~deliver:(fun c ->
        received := c :: !received)
  in
  Rcc.Transport.set_impairment tr impair;
  (engine, tr, received)

let count_deliveries received ch =
  List.length
    (List.filter (fun c -> Rcc.Control.channel_of c = ch) !received)

let test_transport_exactly_once_under_loss () =
  (* 30% loss on data and acks; enough retransmission budget that every
     distinct control message still arrives exactly once. *)
  let imp =
    Failures.Impair.create ~seed:5
      ~default:(Failures.Impair.make ~loss:0.3 ~dup:0.1 ~jitter:2e-4 ()) ()
  in
  let params =
    { Rcc.Transport.default_params with Rcc.Transport.s_max = 16; max_retransmits = 25 }
  in
  let engine, tr, received =
    make_transport
      ~impair:(fun ~dir ~bytes ~now ->
        Failures.Impair.decide imp ~link:0 ~dir ~bytes ~now)
      ~params ()
  in
  let n = 40 in
  for ch = 0 to n - 1 do
    Rcc.Transport.send tr (report ch)
  done;
  Sim.Engine.run engine;
  for ch = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "ch %d exactly once" ch)
      1
      (count_deliveries received ch)
  done;
  Alcotest.(check int) "nothing abandoned" 0 (Rcc.Transport.stats_dropped tr);
  Alcotest.(check bool) "loss forced retransmissions" true
    (Rcc.Transport.stats_sent tr > n)

let test_transport_total_loss_gives_up () =
  let params =
    { Rcc.Transport.default_params with Rcc.Transport.max_retransmits = 3 }
  in
  let engine, tr, received =
    make_transport ~impair:(fun ~dir:_ ~bytes:_ ~now:_ -> []) ~params ()
  in
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "never delivered" 0 (List.length !received);
  Alcotest.(check int) "exactly max_retransmits attempts" 3
    (Rcc.Transport.stats_sent tr);
  Alcotest.(check int) "dropped once" 1 (Rcc.Transport.stats_dropped tr);
  Alcotest.(check int) "not in flight" 0 (Rcc.Transport.in_flight tr)

let test_transport_ack_loss_forces_retransmit () =
  (* Acks always lost, data always delivered: the receiver-side dedup must
     suppress every retransmitted copy, and the sender eventually gives
     up on the (already delivered) message. *)
  let params =
    { Rcc.Transport.default_params with Rcc.Transport.max_retransmits = 4 }
  in
  let engine, tr, received =
    make_transport
      ~impair:(fun ~dir ~bytes:_ ~now:_ ->
        match dir with `Ack -> [] | `Data -> [ 0.0 ])
      ~params ()
  in
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "exactly one delivery" 1 (List.length !received);
  Alcotest.(check int) "retransmitted to exhaustion" 4
    (Rcc.Transport.stats_sent tr);
  Alcotest.(check int) "sender gave up" 1 (Rcc.Transport.stats_dropped tr)

let test_transport_dup_storm_single_delivery () =
  let imp =
    Failures.Impair.create ~seed:6
      ~default:(Failures.Impair.make ~dup:1.0 ~jitter:1e-4 ()) ()
  in
  let params = { Rcc.Transport.default_params with Rcc.Transport.s_max = 16 } in
  let engine, tr, received =
    make_transport
      ~impair:(fun ~dir ~bytes ~now ->
        Failures.Impair.decide imp ~link:0 ~dir ~bytes ~now)
      ~params ()
  in
  for ch = 0 to 9 do
    Rcc.Transport.send tr (report ch)
  done;
  Sim.Engine.run engine;
  for ch = 0 to 9 do
    Alcotest.(check int) "dedup under duplication" 1 (count_deliveries received ch)
  done

let test_transport_seen_window_bounded () =
  let params =
    { Rcc.Transport.default_params with Rcc.Transport.s_max = 16; seen_window = 8 }
  in
  let engine, tr, received = make_transport ~params () in
  for ch = 0 to 49 do
    Rcc.Transport.send tr (report ch)
  done;
  Sim.Engine.run engine;
  Alcotest.(check int) "all delivered" 50 (List.length !received);
  Alcotest.(check bool) "seen bounded by window" true
    (Rcc.Transport.seen_size tr <= 8)

let test_transport_seen_pruned_on_repair () =
  let engine, tr, received = make_transport () in
  Rcc.Transport.send tr (report 1);
  Rcc.Transport.send tr (report 2);
  Sim.Engine.run engine;
  Alcotest.(check bool) "dedup state accumulated" true
    (Rcc.Transport.seen_size tr > 0);
  ignore received;
  Rcc.Transport.set_alive tr false;
  Rcc.Transport.set_alive tr true;
  (* Everything was acked and nothing is airborne: the repair prune can
     safely forget all of it. *)
  Alcotest.(check int) "seen cleared on repair" 0 (Rcc.Transport.seen_size tr)

(* ---------- simnet helpers ---------- *)

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

let find_record sim conn =
  match
    List.find_opt (fun r -> r.Bcp.Node.conn = conn) (Bcp.Simnet.records sim)
  with
  | Some r -> r
  | None -> Alcotest.failf "no record for conn %d" conn

(* ---------- parity: zero impairment == legacy pipeline ---------- *)

let run_parity_scenario ~impaired () =
  let ns = torus_ns () in
  let c0 = establish_exn ns 0 (request 0 5) in
  let _c1 = establish_exn ns 1 (request 12 3 ~backups:2) in
  let sim = Bcp.Simnet.create ~telemetry:true ns in
  if impaired then
    Bcp.Simnet.set_impairment sim (Failures.Impair.create ~seed:99 ());
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id c0);
  Bcp.Simnet.fail_node sim ~at:0.02 10;
  Bcp.Simnet.run ~until:0.3 sim;
  Bcp.Simnet.finalize sim;
  sim

let test_zero_impairment_parity () =
  let a = run_parity_scenario ~impaired:false () in
  let b = run_parity_scenario ~impaired:true () in
  let summary sim r =
    ( r.Bcp.Node.conn,
      r.Bcp.Node.failure_time,
      r.Bcp.Node.excluded,
      r.Bcp.Node.src_informed,
      r.Bcp.Node.dst_informed,
      r.Bcp.Node.activations,
      r.Bcp.Node.resumed_at,
      r.Bcp.Node.recovered_serial,
      Bcp.Simnet.rcc_messages_sent sim )
  in
  Alcotest.(check int) "same record count"
    (List.length (Bcp.Simnet.records a))
    (List.length (Bcp.Simnet.records b));
  List.iter2
    (fun ra rb ->
      if summary a ra <> summary b rb then
        Alcotest.failf "record for conn %d diverged" ra.Bcp.Node.conn)
    (Bcp.Simnet.records a) (Bcp.Simnet.records b);
  Alcotest.(check int) "identical RCC message count"
    (Bcp.Simnet.rcc_messages_sent a)
    (Bcp.Simnet.rcc_messages_sent b);
  Alcotest.(check int) "identical deliveries"
    (Bcp.Simnet.control_messages_delivered a)
    (Bcp.Simnet.control_messages_delivered b);
  (* Byte-identical traces: same events, RCC steps included, same times,
     same order. *)
  let dump sim =
    List.map
      (fun (time, ev) -> (time, Sim.Event.to_string ev))
      (Sim.Trace.events (Bcp.Simnet.trace sim))
  in
  Alcotest.(check (list (pair (float 0.0) string)))
    "byte-identical trace" (dump a) (dump b)

(* ---------- recovery under 20% control-message loss ---------- *)

let test_recovery_under_loss () =
  let ns = torus_ns () in
  let rng = Sim.Prng.create 17 in
  let reqs =
    List.filteri (fun i _ -> i < 40)
      (Workload.Generator.shuffled rng (Workload.Generator.all_pairs (Bcp.Netstate.topology ns)))
  in
  let conns =
    List.mapi
      (fun i (r : Workload.Generator.request) ->
        establish_exn ns i
          (request r.Workload.Generator.src r.Workload.Generator.dst))
      reqs
  in
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rcc =
        { Rcc.Transport.default_params with Rcc.Transport.max_retransmits = 25 };
    }
  in
  let sim = Bcp.Simnet.create ~config ns in
  Bcp.Simnet.set_impairment sim
    (Failures.Impair.create ~seed:23
       ~default:(Failures.Impair.make ~loss:0.2 ~dup:0.1 ~jitter:2e-4 ()) ());
  Bcp.Simnet.fail_link sim ~at:0.01 (primary_link_id (List.hd conns));
  Bcp.Simnet.run ~until:0.4 sim;
  Bcp.Simnet.finalize sim;
  let records = Bcp.Simnet.records sim in
  Alcotest.(check bool) "some connections affected" true (records <> []);
  List.iter
    (fun r ->
      if not r.Bcp.Node.excluded then begin
        Alcotest.(check bool)
          (Printf.sprintf "conn %d resumed despite loss" r.Bcp.Node.conn)
          true
          (r.Bcp.Node.resumed_at <> None);
        Alcotest.(check bool)
          (Printf.sprintf "conn %d validated" r.Bcp.Node.conn)
          true
          (r.Bcp.Node.recovered_serial <> None)
      end)
    records

(* ---------- heartbeat failure detection ---------- *)

let hb_config =
  {
    Bcp.Protocol.default_config with
    Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
  }

let test_detector_state_machine () =
  let p = { Bcp.Detector.period = 0.01; suspect_misses = 2; confirm_misses = 4 } in
  let d = Bcp.Detector.create p ~now:0.0 in
  Alcotest.(check bool) "healthy at start" true
    (Bcp.Detector.state d = Bcp.Detector.Healthy);
  Alcotest.(check bool) "fine after one miss" true
    (Bcp.Detector.check d ~now:0.015 = `Fine);
  Alcotest.(check bool) "suspected" true
    (Bcp.Detector.check d ~now:0.025 = `Suspected);
  Alcotest.(check bool) "beat clears suspicion" true
    (Bcp.Detector.beat d ~now:0.03 = `Fine);
  Alcotest.(check bool) "healthy again" true
    (Bcp.Detector.state d = Bcp.Detector.Healthy);
  Alcotest.(check bool) "confirmed after threshold" true
    (Bcp.Detector.check d ~now:0.08 = `Confirmed);
  Alcotest.(check bool) "confirm fires once" true
    (Bcp.Detector.check d ~now:0.09 = `Fine);
  Alcotest.(check bool) "beat recovers from confirmed" true
    (Bcp.Detector.beat d ~now:0.1 = `Recovered)

let test_heartbeat_detects_link_failure () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let sim = Bcp.Simnet.create ~config:hb_config ~telemetry:true ns in
  let l = primary_link_id c in
  Bcp.Simnet.fail_link sim ~at:0.05 l;
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  let r = find_record sim 0 in
  Alcotest.(check bool) "confirmed by heartbeats" true
    (Bcp.Simnet.heartbeat_confirms sim >= 1);
  (* The receiver's monitor, not the sender's drop detector, must have
     confirmed the link and never cleared it since. *)
  let dst = (Net.Topology.link (Bcp.Netstate.topology ns) l).Net.Topology.dst in
  let last_signal =
    List.fold_left
      (fun last -> function
        | _, Sim.Event.Detector { node; link; signal }
          when link = l && node = dst ->
          Some signal
        | _ -> last)
      None
      (Sim.Trace.events (Bcp.Simnet.trace sim))
  in
  Alcotest.(check bool) "receiver monitor ends confirmed" true
    (last_signal = Some Sim.Event.Confirm);
  Alcotest.(check bool) "resumed without any oracle" true
    (r.Bcp.Node.resumed_at <> None);
  Alcotest.(check (option int)) "recovered on backup" (Some 1)
    r.Bcp.Node.recovered_serial;
  (* Detection needed at least the configured miss window. *)
  let resumed = Option.get r.Bcp.Node.resumed_at in
  let hb = Bcp.Detector.default_params in
  Alcotest.(check bool) "detection respects miss threshold" true
    (resumed -. 0.05
    >= float_of_int hb.Bcp.Detector.suspect_misses *. hb.Bcp.Detector.period)

let test_heartbeat_false_positive_recovery () =
  (* A flapping gray link: long silent outages, no real failure.  The
     detector must confirm during an outage (false positive) and observe
     the heartbeats resuming afterwards. *)
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let sim = Bcp.Simnet.create ~config:hb_config ns in
  let l = primary_link_id c in
  let imp = Failures.Impair.create ~seed:31 () in
  Failures.Impair.set_link imp ~link:l
    (Failures.Impair.make
       ~flap:(Failures.Impair.flapping ~up:0.05 ~down:0.05 ~phase:0.05 ())
       ());
  Bcp.Simnet.set_impairment sim imp;
  Bcp.Simnet.run ~until:0.3 sim;
  Bcp.Simnet.finalize sim;
  Alcotest.(check bool) "outage confirmed" true
    (Bcp.Simnet.heartbeat_confirms sim >= 1);
  Alcotest.(check bool) "false positive noticed on resume" true
    (Bcp.Simnet.heartbeat_recoveries sim >= 1);
  (* The link was never actually down. *)
  Alcotest.(check bool) "link alive throughout" true (Bcp.Simnet.alive sim (Net.Component.Link l))

let test_heartbeat_node_failure () =
  let ns = torus_ns () in
  (* A transit connection: 0 -> ... -> 2 passing through a middle node. *)
  let c0 = establish_exn ns 0 (request 0 2) in
  let mid =
    List.nth
      (Net.Path.nodes (Bcp.Netstate.topology ns)
         c0.Bcp.Dconn.primary.Rtchan.Channel.path)
      1
  in
  let sim = Bcp.Simnet.create ~config:hb_config ns in
  Bcp.Simnet.fail_node sim ~at:0.05 mid;
  Bcp.Simnet.run ~until:0.25 sim;
  Bcp.Simnet.finalize sim;
  let r = find_record sim 0 in
  Alcotest.(check bool) "recovered from node death" true
    (r.Bcp.Node.resumed_at <> None && r.Bcp.Node.recovered_serial <> None)

(* ---------- chaos harness smoke ---------- *)

let test_chaos_levels_monotone_overhead () =
  let ns = torus_ns () in
  let rng = Sim.Prng.create 41 in
  let reqs =
    List.filteri (fun i _ -> i < 30)
      (Workload.Generator.shuffled rng
         (Workload.Generator.all_pairs (Bcp.Netstate.topology ns)))
  in
  List.iteri
    (fun i (r : Workload.Generator.request) ->
      ignore
        (Bcp.Establish.establish ns ~conn_id:i
           (request r.Workload.Generator.src r.Workload.Generator.dst)))
    reqs;
  let levels = [ Eval.Chaos.level 0.0; Eval.Chaos.level 0.3 ~dup:0.1 ] in
  match Eval.Chaos.run ~seed:5 ~scenario_count:3 ~levels ns with
  | [ clean; lossy ] ->
    Alcotest.(check bool) "clean recovers fully" true (clean.Eval.Chaos.r_fast >= 99.9);
    Alcotest.(check int) "same affected set" clean.Eval.Chaos.affected
      lossy.Eval.Chaos.affected;
    Alcotest.(check bool) "loss inflates RCC traffic" true
      (lossy.Eval.Chaos.rcc_sent > clean.Eval.Chaos.rcc_sent);
    ignore (Eval.Chaos.report [ clean; lossy ])
  | _ -> Alcotest.fail "expected two outcomes"

let () =
  Alcotest.run "impair"
    [
      ( "model",
        [
          Alcotest.test_case "perfect transparent" `Quick
            test_impair_perfect_is_transparent;
          Alcotest.test_case "loss + gray" `Quick test_impair_loss_and_gray;
          Alcotest.test_case "flap schedule" `Quick test_impair_flap_schedule;
          Alcotest.test_case "duplication" `Quick test_impair_dup;
          Alcotest.test_case "validation" `Quick test_impair_validation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "exactly-once under 30% loss" `Quick
            test_transport_exactly_once_under_loss;
          Alcotest.test_case "total loss gives up" `Quick
            test_transport_total_loss_gives_up;
          Alcotest.test_case "ack loss forces retransmit" `Quick
            test_transport_ack_loss_forces_retransmit;
          Alcotest.test_case "dup storm single delivery" `Quick
            test_transport_dup_storm_single_delivery;
          Alcotest.test_case "seen window bounded" `Quick
            test_transport_seen_window_bounded;
          Alcotest.test_case "seen pruned on repair" `Quick
            test_transport_seen_pruned_on_repair;
        ] );
      ( "parity",
        [ Alcotest.test_case "zero impairment" `Quick test_zero_impairment_parity ] );
      ( "recovery",
        [ Alcotest.test_case "20% loss" `Quick test_recovery_under_loss ] );
      ( "heartbeat",
        [
          Alcotest.test_case "detector state machine" `Quick
            test_detector_state_machine;
          Alcotest.test_case "detects link failure" `Quick
            test_heartbeat_detects_link_failure;
          Alcotest.test_case "false positive recovery" `Quick
            test_heartbeat_false_positive_recovery;
          Alcotest.test_case "node failure" `Quick test_heartbeat_node_failure;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "levels + overhead" `Quick
            test_chaos_levels_monotone_overhead;
        ] );
    ]
