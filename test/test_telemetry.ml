(* Tests for the typed telemetry plane: metrics registry, event JSON
   codecs, exporters, and the instrumented recovery sweep. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- metrics registry ---------- *)

let test_counter_basics () =
  let m = Sim.Metrics.create () in
  let c = Sim.Metrics.counter m "rcc.messages" ~labels:[ ("op", "send") ] in
  Sim.Metrics.incr c;
  Sim.Metrics.incr ~by:4 c;
  Alcotest.(check int) "count" 5 (Sim.Metrics.count c);
  (* Find-or-create returns the same handle; label order is irrelevant. *)
  let c' = Sim.Metrics.counter m "rcc.messages" ~labels:[ ("op", "send") ] in
  Sim.Metrics.incr c';
  Alcotest.(check int) "shared" 6 (Sim.Metrics.count c)

let test_gauge_and_timer () =
  let m = Sim.Metrics.create () in
  let g = Sim.Metrics.gauge m "load" in
  Sim.Metrics.set g 0.25;
  Sim.Metrics.set g 0.75;
  check_float "last set wins" 0.75 (Sim.Metrics.value g);
  let t = Sim.Metrics.timer m "phase.detect" in
  List.iter (Sim.Metrics.observe t) [ 0.001; 0.002; 0.003 ];
  Alcotest.(check int) "observations" 3 (Sim.Metrics.observations t)

let test_kind_conflict_rejected () =
  let m = Sim.Metrics.create () in
  ignore (Sim.Metrics.counter m "x");
  Alcotest.(check bool) "gauge on counter name raises" true
    (try
       ignore (Sim.Metrics.gauge m "x");
       false
     with Invalid_argument _ -> true)

let test_snapshot_sorted () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr (Sim.Metrics.counter m "zeta");
  Sim.Metrics.incr (Sim.Metrics.counter m "alpha" ~labels:[ ("b", "2") ]);
  Sim.Metrics.incr (Sim.Metrics.counter m "alpha" ~labels:[ ("a", "1") ]);
  let names = List.map (fun (n, l, _) -> (n, l)) (Sim.Metrics.snapshot m) in
  Alcotest.(check bool) "sorted by name then labels" true
    (names
    = [ ("alpha", [ ("a", "1") ]); ("alpha", [ ("b", "2") ]); ("zeta", []) ])

let test_merge_matches_sequential () =
  (* Observing everything in one registry must equal splitting the same
     (ordered) observations across two registries and merging them. *)
  let direct = Sim.Metrics.create () in
  let a = Sim.Metrics.create () and b = Sim.Metrics.create () in
  let feed m vals =
    let c = Sim.Metrics.counter m "events" in
    let g = Sim.Metrics.gauge m "last" in
    let t = Sim.Metrics.timer m "delay" in
    List.iter
      (fun v ->
        Sim.Metrics.incr c;
        Sim.Metrics.set g v;
        Sim.Metrics.observe t v)
      vals
  in
  let first = [ 0.001; 0.005; 0.002 ] and second = [ 0.004; 0.003 ] in
  feed direct (first @ second);
  feed a first;
  feed b second;
  let merged = Sim.Metrics.create () in
  Sim.Metrics.merge_into ~into:merged a;
  Sim.Metrics.merge_into ~into:merged b;
  Alcotest.(check bool) "snapshots equal" true
    (Sim.Metrics.snapshot merged = Sim.Metrics.snapshot direct)

(* ---------- event JSON round-trips ---------- *)

let all_events =
  [
    Sim.Event.Chan_transition
      { node = 3; channel = 130; from_ = Sim.Event.P; to_ = Sim.Event.U; cause = "detect" };
    Sim.Event.Rcc { link = 7; op = Sim.Event.Retransmit; seq = 42; bytes = 64 };
    Sim.Event.Detector { node = 1; link = 9; signal = Sim.Event.Suspect };
    Sim.Event.Activation { node = 0; conn = 5; serial = 1; channel = 321 };
    Sim.Event.Rejoin_timer { node = 2; channel = 66; op = Sim.Event.Expired };
    Sim.Event.Mux { link = 4; backup = 77; op = Sim.Event.Register; pi = 2; psi = 5 };
    Sim.Event.Fault { component = Sim.Event.Node 6; up = true };
  ]

let test_event_roundtrip () =
  List.iter
    (fun ev ->
      (* Through the printer/parser too, not just the constructors. *)
      let s = Eval.Json.to_string (Eval.Telemetry.event_to_json ev) in
      match Eval.Json.of_string s with
      | Error e -> Alcotest.failf "reparse failed for %s: %s" s e
      | Ok j -> (
        match Eval.Telemetry.event_of_json j with
        | Ok ev' ->
          if ev' <> ev then
            Alcotest.failf "round-trip changed %s" (Sim.Event.to_string ev)
        | Error e ->
          Alcotest.failf "decode failed for %s: %s" (Sim.Event.to_string ev) e))
    all_events

let test_event_decode_rejects_garbage () =
  let bad j =
    match Eval.Telemetry.event_of_json j with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "unknown type" true
    (bad (Eval.Json.Obj [ ("type", Eval.Json.String "nope") ]));
  Alcotest.(check bool) "missing field" true
    (bad (Eval.Json.Obj [ ("type", Eval.Json.String "rcc") ]))

(* The reconfiguration event left the vocabulary: an imported line tagged
   "reconfig" gets the unknown-type diagnostic, and [bcp_sim audit]
   refuses the file with exit code 2. *)
let reconfig_line =
  {|{"scenario":0,"time":0.01,"type":"reconfig","conn":8,"action":"promoted"}|}

let test_reconfig_import_rejected () =
  (match Eval.Json.of_string reconfig_line with
  | Error e -> Alcotest.failf "fixture does not parse: %s" e
  | Ok j -> (
    match Eval.Telemetry.event_of_json j with
    | Ok ev -> Alcotest.failf "decoded as %s" (Sim.Event.to_string ev)
    | Error e ->
      Alcotest.(check string) "decode diagnostic"
        {|unknown event type "reconfig"|} e));
  let trace = Filename.temp_file "reconfig" ".jsonl"
  and err = Filename.temp_file "reconfig" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace; Sys.remove err)
    (fun () ->
      Out_channel.with_open_text trace (fun oc ->
          output_string oc (reconfig_line ^ "\n"));
      let code =
        Sys.command
          (Printf.sprintf "%s audit --trace %s > %s 2> %s"
             (Filename.quote Cli.bcp_sim)
             (Filename.quote trace) (Filename.quote Filename.null)
             (Filename.quote err))
      in
      Alcotest.(check int) "exit code" 2 code;
      let msg = In_channel.with_open_text err In_channel.input_all in
      let expected =
        Printf.sprintf "audit: cannot load %s: line 1: unknown event type \"reconfig\"\n"
          trace
      in
      Alcotest.(check string) "diagnostic" expected msg)

let test_string_codecs_total () =
  let chk to_s of_s vs =
    List.iter
      (fun v ->
        match of_s (to_s v) with
        | Some v' when v' = v -> ()
        | _ -> Alcotest.failf "codec not inverse on %s" (to_s v))
      vs
  in
  chk Sim.Event.chan_state_to_string Sim.Event.chan_state_of_string
    [ Sim.Event.N; Sim.Event.P; Sim.Event.B; Sim.Event.U ];
  chk Sim.Event.rcc_op_to_string Sim.Event.rcc_op_of_string
    [ Sim.Event.Send; Sim.Event.Retransmit; Sim.Event.Deliver; Sim.Event.Ack; Sim.Event.Drop ];
  chk Sim.Event.detector_signal_to_string Sim.Event.detector_signal_of_string
    [ Sim.Event.Suspect; Sim.Event.Confirm; Sim.Event.Clear ];
  chk Sim.Event.timer_op_to_string Sim.Event.timer_op_of_string
    [ Sim.Event.Started; Sim.Event.Cancelled; Sim.Event.Expired ];
  chk Sim.Event.mux_op_to_string Sim.Event.mux_op_of_string
    [ Sim.Event.Register; Sim.Event.Unregister ]

let test_metrics_json_roundtrip () =
  let m = Sim.Metrics.create () in
  Sim.Metrics.incr ~by:7 (Sim.Metrics.counter m "c" ~labels:[ ("k", "v") ]);
  Sim.Metrics.set (Sim.Metrics.gauge m "g") 1.5;
  List.iter (Sim.Metrics.observe (Sim.Metrics.timer m "t")) [ 0.01; 0.02 ];
  let snap = Sim.Metrics.snapshot m in
  let s = Eval.Json.to_string (Eval.Telemetry.metrics_to_json snap) in
  match Eval.Json.of_string s with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok j -> (
    match Eval.Telemetry.metrics_of_json j with
    | Ok snap' ->
      Alcotest.(check bool) "snapshot round-trips" true (snap' = snap)
    | Error e -> Alcotest.failf "decode failed: %s" e)

let test_exporters_shape () =
  let events = List.mapi (fun i ev -> (i, 0.001 *. float_of_int i, ev)) all_events in
  let jsonl =
    Capture.output (fun oc -> Eval.Telemetry.events_to_jsonl oc events)
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check int) "one line per event" (List.length events)
    (List.length lines);
  List.iter
    (fun line ->
      match Eval.Json.of_string line with
      | Ok j ->
        Alcotest.(check bool) "has scenario" true
          (Eval.Json.member "scenario" j <> None)
      | Error e -> Alcotest.failf "bad JSONL line %s: %s" line e)
    lines;
  let chrome = Eval.Json.to_string (Eval.Telemetry.events_to_chrome events) in
  match Eval.Json.of_string chrome with
  | Error e -> Alcotest.failf "chrome trace unparseable: %s" e
  | Ok j ->
    let te =
      match Eval.Json.member "traceEvents" j with
      | Some l -> Eval.Json.to_list l
      | None -> []
    in
    Alcotest.(check int) "traceEvents count" (List.length events)
      (List.length te)

(* ---------- instrumented recovery sweep ---------- *)

(* Channel output is byte-identical to the string rendering: a doc with
   every [Json] constructor against the bytes the Buffer-based printer
   produced before the printers were shared, and a JSONL log against one
   [to_string] per line. *)
let every_constructor =
  Eval.Json.(
    Obj
      [
        ("null", Null);
        ("bools", List [ Bool true; Bool false ]);
        ("ints", List [ Int 0; Int (-42); Int max_int ]);
        ( "floats",
          List
            [
              Float 1.0; Float (-0.5); Float 0.1; Float 1e15; Float 1e300;
              Float 3.141592653589793; Float nan; Float infinity;
            ] );
        ("string", String "q\" b\\ n\n t\t r\r bell\007 \xce\xbb");
        ("empty list", List []);
        ("empty obj", Obj []);
        ("nested", Obj [ ("a", List [ Obj [ ("b", Null) ] ]) ]);
      ])

let compact_rendering =
  "{\"null\":null,\"bools\":[true,false],\"ints\":[0,-42,4611686018427387903],\"floats\":[1.0,-0.5,0.1,1e+15,1e+300,3.1415926535897931,null,null],\"string\":\"q\\\" b\\\\ n\\n t\\t r\\r bell\\u0007 \206\187\",\"empty list\":[],\"empty obj\":{},\"nested\":{\"a\":[{\"b\":null}]}}"

let indented_rendering =
  "{\n  \"null\": null,\n  \"bools\": [\n    true,\n    false\n  ],\n  \"ints\": [\n    0,\n    -42,\n    4611686018427387903\n  ],\n  \"floats\": [\n    1.0,\n    -0.5,\n    0.1,\n    1e+15,\n    1e+300,\n    3.1415926535897931,\n    null,\n    null\n  ],\n  \"string\": \"q\\\" b\\\\ n\\n t\\t r\\r bell\\u0007 \206\187\",\n  \"empty list\": [],\n  \"empty obj\": {},\n  \"nested\": {\n    \"a\": [\n      {\n        \"b\": null\n      }\n    ]\n  }\n}"

let test_channel_output_identical () =
  List.iter
    (fun (what, indent, expected) ->
      Alcotest.(check string)
        (what ^ " to_string") expected
        (Eval.Json.to_string ?indent every_constructor);
      Alcotest.(check string)
        (what ^ " output") expected
        (Capture.output (fun oc -> Eval.Json.output ?indent oc every_constructor)))
    [ ("compact", None, compact_rendering); ("indented", Some 2, indented_rendering) ];
  let events = List.mapi (fun i ev -> (i, 0.25 *. float_of_int i, ev)) all_events in
  Alcotest.(check string)
    "jsonl = one to_string per line"
    (String.concat ""
       (List.map
          (fun e -> Eval.Json.to_string (Eval.Telemetry.tagged_to_json e) ^ "\n")
          events))
    (Capture.output (fun oc -> Eval.Telemetry.events_to_jsonl oc events))

let torus4 () =
  Eval.Setup.build ~seed:42 ~backups:1 ~mux_degree:3 Eval.Setup.Torus4

let sweep ?(jobs = 1) () =
  Sim.Pool.set_jobs jobs;
  let est = torus4 () in
  let obs = Eval.Telemetry.create ~events:true in
  let stats =
    Eval.Recovery_delay.measure ~obs ~seed:11 ~scenario_count:4
      est.Eval.Setup.ns
  in
  Sim.Pool.set_jobs 1;
  (stats, obs)

let test_recovery_telemetry () =
  let stats, obs = sweep () in
  let ph =
    Eval.Recovery_delay.phases_of_snapshot (Eval.Telemetry.metrics obs)
  in
  Alcotest.(check bool) "recovered something" true (stats.Eval.Recovery_delay.samples > 0);
  Alcotest.(check bool) "phase samples collected" true
    (ph.Eval.Recovery_delay.detect.Eval.Recovery_delay.samples > 0
    && ph.Eval.Recovery_delay.switch.Eval.Recovery_delay.samples > 0);
  Alcotest.(check bool) "events recorded" true
    (Eval.Telemetry.events obs <> []);
  Alcotest.(check bool) "metrics recorded" true
    (Eval.Telemetry.metrics obs <> []);
  (* Phases are durations: non-negative, and p50 <= max. *)
  List.iter
    (fun (p : Eval.Recovery_delay.phase_stats) ->
      Alcotest.(check bool) "non-negative" true (p.p50 >= 0.0 && p.max >= 0.0);
      Alcotest.(check bool) "p50 <= max" true (p.p50 <= p.max +. 1e-12))
    [
      ph.Eval.Recovery_delay.detect;
      ph.Eval.Recovery_delay.report;
      ph.Eval.Recovery_delay.activate;
      ph.Eval.Recovery_delay.switch;
    ]

let test_recovery_stats_unchanged_by_telemetry () =
  (* The instrumented sweep must report the same statistics as the plain
     one: telemetry is strictly passive. *)
  let plain =
    Eval.Recovery_delay.measure ~seed:11 ~scenario_count:4
      (torus4 ()).Eval.Setup.ns
  in
  let stats, _ = sweep () in
  Alcotest.(check bool) "stats identical" true (stats = plain)

let test_recovery_telemetry_parallel_identical () =
  let stats_s, obs_s = sweep () in
  let stats_p, obs_p = sweep ~jobs:4 () in
  Alcotest.(check bool) "stats identical" true (stats_s = stats_p);
  Alcotest.(check bool) "metrics identical" true
    (Eval.Telemetry.metrics obs_s = Eval.Telemetry.metrics obs_p);
  Alcotest.(check bool) "events identical" true
    (Eval.Telemetry.events obs_s = Eval.Telemetry.events obs_p)

let test_setup_mux_sink () =
  let obs = Eval.Telemetry.create ~events:true in
  let est =
    Eval.Setup.build ~obs ~seed:42 ~backups:1 ~mux_degree:3 Eval.Setup.Torus4
  in
  Alcotest.(check bool) "established" true (est.Eval.Setup.established > 0);
  let regs =
    List.fold_left
      (fun n (tag, time, ev) ->
        if tag <> -1 || time <> 0.0 then
          Alcotest.fail "setup events belong to pseudo-scenario -1 at 0.0";
        match ev with
        | Sim.Event.Mux { op = Sim.Event.Register; pi; psi; _ } ->
          if pi < 0 || psi < 0 then Alcotest.fail "negative set size";
          n + 1
        | _ -> n)
      0 (Eval.Telemetry.events obs)
  in
  Alcotest.(check bool) "saw registrations" true (regs > 0);
  Alcotest.(check bool) "no metrics from establishment" true
    (Eval.Telemetry.metrics obs = [])

(* ---------- observing a run must not change it ---------- *)

(* Every experiment that takes [?obs], with the outcome type hidden: the
   checks below only compare two outcomes of the same experiment. *)
type experiment =
  | Experiment : (?obs:Eval.Telemetry.collector -> unit -> 'a) -> experiment

let experiments =
  let ns = lazy (torus4 ()).Eval.Setup.ns in
  [
    ( "recovery_delay",
      Experiment
        (fun ?obs () ->
          Eval.Recovery_delay.measure ?obs ~seed:11 ~scenario_count:4
            (Lazy.force ns)) );
    ( "chaos",
      Experiment
        (fun ?obs () ->
          Eval.Chaos.run ?obs ~seed:5 ~scenario_count:3 ~detector:`Heartbeat
            ~levels:[ Eval.Chaos.level 0.0; Eval.Chaos.level 0.2 ]
            (Lazy.force ns)) );
    ( "churn",
      Experiment
        (fun ?obs () ->
          Eval.Churn.run ?obs ~seed:13 ~events:1500 ~offered:[ 2.0; 4.0 ]
            ~bandwidth:4.0 ~fault_every:20.0 Eval.Setup.Torus4) );
    ( "swarm",
      Experiment
        (fun ?obs () ->
          Eval.Swarm.run ?obs ~seed:3 ~budget:8 (Lazy.force ns)) );
  ]

let test_observation_passive (Experiment run) () =
  let plain = run () in
  let observed jobs =
    Sim.Pool.set_jobs jobs;
    let obs = Eval.Telemetry.create ~events:true in
    let outcome = run ~obs () in
    Sim.Pool.set_jobs 1;
    (outcome, Eval.Telemetry.metrics obs, Eval.Telemetry.events obs)
  in
  let outcome_1, metrics_1, events_1 = observed 1 in
  let _, metrics_2, events_2 = observed 2 in
  Alcotest.(check bool) "outcome unchanged by ~obs" true (outcome_1 = plain);
  Alcotest.(check bool) "events collected" true (events_1 <> []);
  Alcotest.(check bool) "metrics collected" true (metrics_1 <> []);
  Alcotest.(check bool) "metrics identical at jobs 1 and 2" true
    (metrics_1 = metrics_2);
  Alcotest.(check bool) "events identical at jobs 1 and 2" true
    (events_1 = events_2)

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge and timer" `Quick test_gauge_and_timer;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict_rejected;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "merge = sequential" `Quick
            test_merge_matches_sequential;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "event round-trip" `Quick test_event_roundtrip;
          Alcotest.test_case "decode rejects garbage" `Quick
            test_event_decode_rejects_garbage;
          Alcotest.test_case "reconfig import rejected" `Quick
            test_reconfig_import_rejected;
          Alcotest.test_case "string codecs total" `Quick
            test_string_codecs_total;
          Alcotest.test_case "metrics round-trip" `Quick
            test_metrics_json_roundtrip;
          Alcotest.test_case "exporter shapes" `Quick test_exporters_shape;
          Alcotest.test_case "channel output = string rendering" `Quick
            test_channel_output_identical;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "phases collected" `Quick test_recovery_telemetry;
          Alcotest.test_case "stats unchanged" `Quick
            test_recovery_stats_unchanged_by_telemetry;
          Alcotest.test_case "parallel identical" `Quick
            test_recovery_telemetry_parallel_identical;
          Alcotest.test_case "setup mux sink" `Quick test_setup_mux_sink;
        ] );
      ( "observer",
        List.map
          (fun (name, e) ->
            Alcotest.test_case name `Quick (test_observation_passive e))
          experiments );
    ]
