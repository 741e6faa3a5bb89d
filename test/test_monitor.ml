(* Tests for the streaming protocol auditor: each invariant family is
   violated on purpose with a hand-crafted event stream (checking the
   reported kind and event index), clean simulator runs audit green, and
   a tampered trace is caught on replay through Eval.Audit. *)

let cid conn serial = Bcp.Protocol.cid ~conn ~serial

let mon ?context ?fail_fast () =
  Sim.Monitor.create ?context ~decode_channel:Eval.Audit.decode_cid ?fail_fast
    ()

let trans node channel from_ to_ cause =
  Sim.Event.Chan_transition { node; channel; from_; to_; cause }

let feed_all m events =
  List.iter (fun (time, ev) -> Sim.Monitor.feed m ~time ev) events;
  Sim.Monitor.finish m

let kinds m =
  List.map
    (fun v -> (v.Sim.Monitor.kind, v.Sim.Monitor.index))
    (Sim.Monitor.violations m)

let kind_pair =
  Alcotest.testable
    (fun ppf (k, i) ->
      Format.fprintf ppf "(%s, %d)" (Sim.Monitor.kind_to_string k) i)
    ( = )

(* ---------- channel state machine ---------- *)

let test_illegal_transition () =
  let m = mon () in
  feed_all m
    [
      (0.01, trans 0 (cid 1 0) Sim.Event.P Sim.Event.U "detect");
      (0.02, trans 0 (cid 1 0) Sim.Event.U Sim.Event.P "rejoin");
    ];
  (* U -> P is never legal (rejoin repairs to B, not P). *)
  Alcotest.(check (list kind_pair))
    "one illegal transition at event 1"
    [ (Sim.Monitor.Illegal_transition, 1) ]
    (kinds m)

let test_state_mismatch () =
  let m = mon () in
  (* Serial 0 starts in P; an event claiming it moved out of B disagrees
     with the shadow state (the move itself is legal). *)
  feed_all m [ (0.01, trans 0 (cid 2 0) Sim.Event.B Sim.Event.U "detect") ];
  Alcotest.(check (list kind_pair))
    "shadow disagreement at event 0"
    [ (Sim.Monitor.State_mismatch, 0) ]
    (kinds m)

let test_legal_recovery_stream_clean () =
  let m = mon () in
  feed_all m
    [
      (0.01, trans 0 (cid 1 0) Sim.Event.P Sim.Event.U "detect");
      (0.011, trans 1 (cid 1 0) Sim.Event.P Sim.Event.U "report");
      (0.012, Sim.Event.Activation { node = 1; conn = 1; serial = 1; channel = cid 1 1 });
      (0.012, trans 1 (cid 1 1) Sim.Event.B Sim.Event.P "activate");
      (0.02, Sim.Event.Rejoin_timer { node = 0; channel = cid 1 0; op = Sim.Event.Started });
      (0.05, Sim.Event.Rejoin_timer { node = 0; channel = cid 1 0; op = Sim.Event.Expired });
      (0.05, trans 0 (cid 1 0) Sim.Event.U Sim.Event.N "expire");
    ];
  Alcotest.(check (list kind_pair)) "clean" [] (kinds m)

(* ---------- activations ---------- *)

let test_double_activation () =
  let m = mon () in
  feed_all m
    [
      (0.01, trans 0 (cid 3 0) Sim.Event.P Sim.Event.U "detect");
      (0.02, trans 0 (cid 3 1) Sim.Event.B Sim.Event.P "activate");
      (0.03, Sim.Event.Activation { node = 0; conn = 3; serial = 2; channel = cid 3 2 });
    ];
  Alcotest.(check (list kind_pair))
    "second backup activated while one is live"
    [ (Sim.Monitor.Double_activation, 2) ]
    (kinds m)

let test_activation_without_failure () =
  let m = mon () in
  feed_all m
    [ (0.01, Sim.Event.Activation { node = 0; conn = 4; serial = 1; channel = cid 4 1 }) ];
  Alcotest.(check (list kind_pair))
    "no reported failure"
    [ (Sim.Monitor.Activation_without_failure, 0) ]
    (kinds m)

(* ---------- phase ordering ---------- *)

let test_report_before_origin () =
  let m = mon () in
  (* A propagated report with no detect/preempt/mux-fail origin anywhere
     on the channel inverts the detect <= report pipeline. *)
  feed_all m [ (0.01, trans 1 (cid 5 0) Sim.Event.P Sim.Event.U "report") ];
  Alcotest.(check (list kind_pair))
    "report with no origin"
    [ (Sim.Monitor.Phase_order, 0) ]
    (kinds m)

(* A context whose conn 6 runs 0 -> 1 (primary, link 0) with a backup
   0 -> 2 -> 1 (links 1, 2); ample spare everywhere. *)
let ctx_conn6 =
  {
    Sim.Monitor.link_ctx =
      Array.make 3 { Sim.Monitor.capacity = 10.0; reserved = 1.0; spare = 5.0 };
    chan_ctx =
      [
        {
          Sim.Monitor.channel = cid 6 0;
          cc_conn = 6;
          cc_serial = 0;
          bw = 1.0;
          nodes = [| 0; 1 |];
          links = [| 0 |];
        };
        {
          Sim.Monitor.channel = cid 6 1;
          cc_conn = 6;
          cc_serial = 1;
          bw = 1.0;
          nodes = [| 0; 2; 1 |];
          links = [| 1; 2 |];
        };
      ];
    mux_bw = [];
  }

let test_switch_before_activation () =
  let m = mon ~context:ctx_conn6 () in
  feed_all m
    [
      (0.01, trans 0 (cid 6 0) Sim.Event.P Sim.Event.U "detect");
      (* The source switches onto the backup... *)
      (0.02, trans 0 (cid 6 1) Sim.Event.B Sim.Event.P "activate");
      (* ...but the activation only commits later: inverted pipeline.
         The violation anchors at the switch event (index 1). *)
      (0.03, Sim.Event.Activation { node = 1; conn = 6; serial = 1; channel = cid 6 1 });
    ];
  Alcotest.(check (list kind_pair))
    "switch precedes activation"
    [ (Sim.Monitor.Phase_order, 1) ]
    (kinds m)

let test_switch_without_activation () =
  let m = mon ~context:ctx_conn6 () in
  feed_all m
    [
      (0.01, trans 0 (cid 6 0) Sim.Event.P Sim.Event.U "detect");
      (0.02, trans 0 (cid 6 1) Sim.Event.B Sim.Event.P "activate");
    ];
  (* finish flags the switch that never saw its activation commit. *)
  Alcotest.(check (list kind_pair))
    "unresolved switch"
    [ (Sim.Monitor.Phase_order, 1) ]
    (kinds m)

let test_spare_overdraw () =
  let tight =
    {
      ctx_conn6 with
      Sim.Monitor.link_ctx =
        Array.make 3
          { Sim.Monitor.capacity = 10.0; reserved = 1.0; spare = 0.5 };
    }
  in
  let m = mon ~context:tight () in
  feed_all m
    [
      (0.01, trans 0 (cid 6 0) Sim.Event.P Sim.Event.U "detect");
      (0.02, Sim.Event.Activation { node = 1; conn = 6; serial = 1; channel = cid 6 1 });
      (0.02, trans 0 (cid 6 1) Sim.Event.B Sim.Event.P "activate");
    ];
  (* The backup needs 1.0 Mbps out of a 0.5 Mbps spare pool. *)
  Alcotest.(check (list kind_pair))
    "pool overdrawn at the switch event"
    [ (Sim.Monitor.Spare_overdraw, 2) ]
    (kinds m)

(* ---------- rejoin timers ---------- *)

let test_timer_misfires () =
  let m = mon () in
  feed_all m
    [
      (0.01, Sim.Event.Rejoin_timer { node = 0; channel = cid 7 1; op = Sim.Event.Expired });
      (0.02, Sim.Event.Rejoin_timer { node = 0; channel = cid 7 1; op = Sim.Event.Started });
      (0.03, Sim.Event.Rejoin_timer { node = 0; channel = cid 7 1; op = Sim.Event.Started });
    ];
  Alcotest.(check (list kind_pair))
    "expiry without start, then double start"
    [ (Sim.Monitor.Timer_misfire, 0); (Sim.Monitor.Timer_misfire, 2) ]
    (kinds m)

let test_timer_fires_on_live_entry () =
  let m = mon () in
  feed_all m
    [
      (0.01, trans 0 (cid 8 1) Sim.Event.B Sim.Event.U "detect");
      (0.02, Sim.Event.Rejoin_timer { node = 0; channel = cid 8 1; op = Sim.Event.Started });
      (0.03, trans 0 (cid 8 1) Sim.Event.U Sim.Event.B "rejoin");
      (* Firing after the entry rejoined: not soft state any more. *)
      (0.04, Sim.Event.Rejoin_timer { node = 0; channel = cid 8 1; op = Sim.Event.Expired });
    ];
  Alcotest.(check (list kind_pair))
    "expiry on a non-U entry"
    [ (Sim.Monitor.Timer_misfire, 3) ]
    (kinds m)

(* ---------- fail-fast ---------- *)

let test_fail_fast_raises () =
  let m = mon ~fail_fast:true () in
  Alcotest.(check bool) "raises Violation" true
    (try
       feed_all m [ (0.01, trans 0 (cid 9 0) Sim.Event.P Sim.Event.B "detect") ];
       false
     with Sim.Monitor.Violation v -> v.Sim.Monitor.kind = Sim.Monitor.Illegal_transition)

(* ---------- clean simulator runs ---------- *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0

let test_live_simnet_clean () =
  let ns =
    Bcp.Netstate.create ~lambda:1e-4
      (Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0)
      ()
  in
  let c =
    match
      Bcp.Establish.establish ns ~conn_id:0
        {
          Bcp.Establish.src = 0;
          dst = 5;
          traffic = bw1;
          qos = Rtchan.Qos.default;
          backups = 1;
          mux_degree = 1;
        }
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "establish: %a" Bcp.Establish.pp_reject e
  in
  let monitor = mon () in
  let sim = Bcp.Simnet.create ~monitor ns in
  Bcp.Simnet.fail_link sim ~at:0.01
    (List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path));
  Bcp.Simnet.run ~until:0.1 sim;
  Bcp.Simnet.finalize sim;
  Alcotest.(check (list kind_pair)) "no violations" [] (kinds monitor);
  Alcotest.(check bool) "saw events" true (Sim.Monitor.events_seen monitor > 0);
  match Sim.Monitor.timelines monitor with
  | [ tl ] ->
    Alcotest.(check int) "conn" 0 tl.Sim.Monitor.tl_conn;
    Alcotest.(check bool) "detect recorded" true (tl.Sim.Monitor.detect_at <> None);
    Alcotest.(check bool) "activation recorded" true
      (tl.Sim.Monitor.activate_at <> None)
  | tls -> Alcotest.failf "expected one timeline, got %d" (List.length tls)

let test_chaos_torus4_audits_clean () =
  (* The acceptance bar: a seeded chaos sweep with impairment > 0 replays
     through the auditor with zero violations. *)
  let obs = Eval.Telemetry.create () in
  let est =
    Eval.Setup.build ~obs ~seed:42 ~backups:1 ~mux_degree:3 Eval.Setup.Torus4
  in
  ignore
    (Eval.Chaos.run ~obs ~seed:42 ~scenario_count:3
       ~levels:[ Eval.Chaos.level 0.0; Eval.Chaos.level 0.05 ]
       est.Eval.Setup.ns);
  let events = Eval.Telemetry.events obs in
  let context = Eval.Audit.context_of_netstate est.Eval.Setup.ns in
  let result = Eval.Audit.replay ~context events in
  Alcotest.(check int) "zero violations" 0 result.Eval.Audit.total_violations;
  Alcotest.(check bool) "audited the whole stream" true
    (result.Eval.Audit.total_events = List.length events
    && result.Eval.Audit.total_events > 0);
  (* -1 (establishment) plus 2 levels x 3 scenarios *)
  Alcotest.(check int) "scenario count" 7
    (List.length result.Eval.Audit.scenarios)

(* ---------- trace forensics ---------- *)

let conn6_recovery_events () =
  [
    (0, 0.01, trans 0 (cid 6 0) Sim.Event.P Sim.Event.U "detect");
    (0, 0.011, trans 1 (cid 6 0) Sim.Event.P Sim.Event.U "report");
    (0, 0.012, Sim.Event.Activation { node = 1; conn = 6; serial = 1; channel = cid 6 1 });
    (0, 0.012, trans 1 (cid 6 1) Sim.Event.B Sim.Event.P "activate");
    (0, 0.013, trans 0 (cid 6 1) Sim.Event.B Sim.Event.P "activate");
  ]

let test_tampered_trace_detected () =
  let clean = conn6_recovery_events () in
  Alcotest.(check int) "clean baseline" 0
    (Eval.Audit.replay clean).Eval.Audit.total_violations;
  (* Tamper: rewrite the origin detect into a propagated report, as a
     truncated or doctored trace would show. *)
  let tampered =
    List.map
      (function
        | sc, time, Sim.Event.Chan_transition ({ cause = "detect"; _ } as tr) ->
          (sc, time, Sim.Event.Chan_transition { tr with cause = "report" })
        | ev -> ev)
      clean
  in
  (* Both reports now lack an origin: one violation per report event,
     anchored at the tampered index first. *)
  let result = Eval.Audit.replay tampered in
  match result.Eval.Audit.scenarios with
  | [ { Eval.Audit.violations = [ v0; v1 ]; _ } ] ->
    Alcotest.(check kind_pair)
      "phase-order at the tampered event"
      (Sim.Monitor.Phase_order, 0)
      (v0.Sim.Monitor.kind, v0.Sim.Monitor.index);
    Alcotest.(check kind_pair)
      "the downstream report is orphaned too"
      (Sim.Monitor.Phase_order, 1)
      (v1.Sim.Monitor.kind, v1.Sim.Monitor.index)
  | _ -> Alcotest.failf "expected two violations in one scenario"

let test_jsonl_roundtrip_through_audit () =
  let events = conn6_recovery_events () in
  let parsed =
    match
      Eval.Telemetry.events_of_jsonl
        (Capture.output (fun oc -> Eval.Telemetry.events_to_jsonl oc events))
    with
    | Ok evs -> evs
    | Error e -> Alcotest.failf "jsonl reparse: %s" e
  in
  Alcotest.(check bool) "events survive the codec" true (parsed = events);
  Alcotest.(check int) "still audits clean" 0
    (Eval.Audit.replay parsed).Eval.Audit.total_violations

let test_filters () =
  let events = conn6_recovery_events () in
  let result = Eval.Audit.replay events in
  let only_conn9 = Eval.Audit.apply_filters [ Eval.Audit.Conn 9 ] result in
  Alcotest.(check int) "conn filter drops foreign timelines" 0
    (List.fold_left
       (fun n s -> n + List.length s.Eval.Audit.timelines)
       0 only_conn9.Eval.Audit.scenarios);
  let keep = Eval.Audit.apply_filters [ Eval.Audit.Conn 6 ] result in
  Alcotest.(check int) "matching conn kept" 1
    (List.fold_left
       (fun n s -> n + List.length s.Eval.Audit.timelines)
       0 keep.Eval.Audit.scenarios)

let test_kind_string_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Sim.Monitor.kind_to_string k)
        true
        (Sim.Monitor.kind_of_string (Sim.Monitor.kind_to_string k) = Some k))
    [
      Sim.Monitor.Illegal_transition;
      Sim.Monitor.State_mismatch;
      Sim.Monitor.Spare_overdraw;
      Sim.Monitor.Mux_bound;
      Sim.Monitor.Capacity_exceeded;
      Sim.Monitor.Double_activation;
      Sim.Monitor.Activation_without_failure;
      Sim.Monitor.Phase_order;
      Sim.Monitor.Timer_misfire;
    ]

let () =
  Alcotest.run "monitor"
    [
      ( "transitions",
        [
          Alcotest.test_case "illegal transition" `Quick test_illegal_transition;
          Alcotest.test_case "state mismatch" `Quick test_state_mismatch;
          Alcotest.test_case "legal stream clean" `Quick
            test_legal_recovery_stream_clean;
        ] );
      ( "activations",
        [
          Alcotest.test_case "double activation" `Quick test_double_activation;
          Alcotest.test_case "activation without failure" `Quick
            test_activation_without_failure;
        ] );
      ( "phases",
        [
          Alcotest.test_case "report before origin" `Quick
            test_report_before_origin;
          Alcotest.test_case "switch before activation" `Quick
            test_switch_before_activation;
          Alcotest.test_case "switch without activation" `Quick
            test_switch_without_activation;
          Alcotest.test_case "spare overdraw" `Quick test_spare_overdraw;
        ] );
      ( "timers",
        [
          Alcotest.test_case "misfires" `Quick test_timer_misfires;
          Alcotest.test_case "fires on live entry" `Quick
            test_timer_fires_on_live_entry;
        ] );
      ( "modes",
        [
          Alcotest.test_case "fail fast raises" `Quick test_fail_fast_raises;
          Alcotest.test_case "kind codec total" `Quick
            test_kind_string_roundtrip;
        ] );
      ( "live",
        [
          Alcotest.test_case "simnet clean" `Quick test_live_simnet_clean;
          Alcotest.test_case "chaos torus4 audits clean" `Quick
            test_chaos_torus4_audits_clean;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "tampered trace detected" `Quick
            test_tampered_trace_detected;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_jsonl_roundtrip_through_audit;
          Alcotest.test_case "filters" `Quick test_filters;
        ] );
    ]
