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
  let obs = Eval.Telemetry.create ~events:true in
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

(* ---------- reference twin ---------- *)

let twin_context =
  lazy
    (Eval.Audit.context_of_netstate
       (Eval.Setup.build Eval.Setup.Torus4).Eval.Setup.ns)

let causes =
  [| "detect"; "report"; "mux-report"; "preempted"; "mux-fail"; "activate";
     "expire"; "closure"; "rejoin"; "preempt"; "bogus" |]

let states = [| Sim.Event.N; P; B; U |]

(* A random stream over the 4x4 context: channels of the context (at
   their own path nodes, mostly), codec ids the context does not know,
   and raw ids; transitions that mostly continue from the state the
   stream last left the (node, channel) in; timers, activations, mux
   updates, faults, RCC steps, detector and lifecycle signals. *)
let gen_stream rs =
  let ctx = Lazy.force twin_context in
  let chans = Array.of_list ctx.Sim.Monitor.chan_ctx in
  let bids = Array.of_list (List.map fst ctx.Sim.Monitor.mux_bw) in
  let int lo hi = lo + Random.State.int rs (hi - lo + 1) in
  let pick a = a.(Random.State.int rs (Array.length a)) in
  let chance p = Random.State.float rs 1.0 < p in
  let last = Hashtbl.create 16 in
  let chan_node () =
    match int 0 6 with
    | 0 | 1 | 2 | 3 ->
      let ci = pick chans in
      let node =
        if chance 0.8 then pick ci.Sim.Monitor.nodes else int 0 17
      in
      (ci.Sim.Monitor.channel, node)
    | 4 | 5 -> (Bcp.Protocol.cid ~conn:(int 0 40) ~serial:(int 0 3), int 0 17)
    | _ -> (int (-3) 5000, int 0 17)
  in
  let event () =
    match int 0 19 with
    | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
      let channel, node = chan_node () in
      let from_ =
        match Hashtbl.find_opt last (node, channel) with
        | Some s when chance 0.8 -> s
        | _ -> pick states
      in
      let to_ = pick states in
      Hashtbl.replace last (node, channel) to_;
      Sim.Event.Chan_transition { node; channel; from_; to_; cause = pick causes }
    | 7 | 8 ->
      let channel, node = chan_node () in
      Sim.Event.Rejoin_timer
        { node; channel; op = pick [| Sim.Event.Started; Cancelled; Expired |] }
    | 9 | 10 ->
      let channel, node = chan_node () in
      let conn, serial = Eval.Audit.decode_cid (abs channel) in
      let conn, serial = if chance 0.8 then (conn, serial) else (int 0 40, int 0 3) in
      Sim.Event.Activation { node; conn; serial; channel }
    | 11 | 12 ->
      Sim.Event.Mux
        {
          link = int 0 8;
          backup = (if chance 0.7 && bids <> [||] then pick bids else int 0 50);
          op = pick [| Sim.Event.Register; Unregister |];
          pi = int (-1) 4;
          psi = int (-1) 4;
        }
    | 13 ->
      let component =
        if chance 0.5 then Sim.Event.Node (int 0 17) else Sim.Event.Link (int 0 70)
      in
      Sim.Event.Fault { component; up = chance 0.3 }
    | 14 | 15 | 16 ->
      Sim.Event.Rcc
        {
          link = int 0 63;
          op = pick [| Sim.Event.Send; Retransmit; Deliver; Ack; Drop |];
          seq = int 0 99;
          bytes = int 0 200;
        }
    | 17 ->
      Sim.Event.Detector
        {
          node = int 0 15;
          link = int 0 63;
          signal = pick [| Sim.Event.Suspect; Confirm; Clear |];
        }
    | _ ->
      Sim.Event.Lifecycle
        {
          conn = int 0 40;
          op = pick [| Sim.Event.Arrive; Admit; Block; Depart; Readmit |];
          active = int 0 9;
        }
  in
  let n = int 0 250 in
  let time = ref 0.0 in
  let events =
    List.init n (fun _ ->
        time := !time +. (0.001 *. float_of_int (int 0 3));
        (!time, event ()))
  in
  (chance 0.7, chance 0.7, chance 0.2, events)

let arb_stream =
  QCheck.make
    ~print:(fun (ctx, dec, ff, evs) ->
      Printf.sprintf "context=%b decode=%b fail_fast=%b\n%s" ctx dec ff
        (String.concat "\n"
           (List.map
              (fun (t, ev) -> Printf.sprintf "%.3f %s" t (Sim.Event.to_string ev))
              evs)))
    gen_stream

let prop_twin_random_streams =
  QCheck.Test.make ~name:"random streams: monitor = reference" ~count:300
    arb_stream (fun (with_ctx, with_decode, fail_fast, events) ->
      let context = if with_ctx then Some (Lazy.force twin_context) else None in
      let decode_channel =
        if with_decode then Some Eval.Audit.decode_cid else None
      in
      match Monitor_twin.compare ?context ?decode_channel ~fail_fast events with
      | None -> true
      | Some what -> QCheck.Test.fail_reportf "reports differ in %s" what)

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
      ( "reference twin",
        [ QCheck_alcotest.to_alcotest prop_twin_random_streams ] );
      ( "forensics",
        [
          Alcotest.test_case "tampered trace detected" `Quick
            test_tampered_trace_detected;
          Alcotest.test_case "jsonl round-trip" `Quick
            test_jsonl_roundtrip_through_audit;
          Alcotest.test_case "filters" `Quick test_filters;
        ] );
    ]
