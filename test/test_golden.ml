(* Golden event streams for seeded heartbeat episodes on the 4x4 and
   8x8 tori.

   Each episode is digested three ways: the per-connection records
   (every time to the bit), the full typed event stream of the trace, and
   the metrics registry as [--metrics] exports it.  The digests were
   recorded before the heartbeat fast paths (eager engine cancel,
   cancelled retransmit timers, the inline pump) went in, so they pin the
   contract those paths keep: a removed do-nothing event changes nothing
   else, and every remaining event keeps its place in the (time, seq)
   order, its PRNG draws and its output.  Each episode also runs with
   telemetry off, and its records must match: observing a run never
   changes it. *)

let est4 = lazy (Eval.Setup.build Eval.Setup.Torus4)
let est8 = lazy (Eval.Setup.build Eval.Setup.Torus8)

let hb_config =
  {
    Bcp.Protocol.default_config with
    Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
  }

let hex f = Printf.sprintf "%h" f
let opt f = function None -> "-" | Some v -> f v

let records_digest sim =
  let line (r : Bcp.Simnet.record) =
    String.concat ","
      [
        string_of_int r.conn;
        string_of_bool r.excluded;
        hex r.failure_time;
        opt hex r.detected_at;
        opt hex r.src_informed;
        opt hex r.dst_informed;
        opt hex r.activated_at;
        String.concat "/"
          (List.map (fun (s, at) -> Printf.sprintf "%d@%h" s at) r.activations);
        opt hex r.resumed_at;
        opt string_of_int r.recovered_serial;
      ]
  in
  Digest.to_hex
    (Digest.string
       (String.concat ";" (List.map line (Bcp.Simnet.records sim))))

(* The layout [Sim.Event.t] had when the digests were recorded.  Its
   sixth constructor, a resource-reconfiguration step that nothing emits
   any more, has left the library; this mirror keeps its slot so that
   every later constructor marshals with the tag it was recorded with. *)
type recorded =
  | Chan_transition of {
      node : int;
      channel : int;
      from_ : Sim.Event.chan_state;
      to_ : Sim.Event.chan_state;
      cause : string;
    }
  | Rcc of { link : int; op : Sim.Event.rcc_op; seq : int; bytes : int }
  | Detector of { node : int; link : int; signal : Sim.Event.detector_signal }
  | Activation of { node : int; conn : int; serial : int; channel : int }
  | Rejoin_timer of { node : int; channel : int; op : Sim.Event.timer_op }
  | Reconfig_slot of { conn : int; action : string } [@warning "-37"]
  | Mux of { link : int; backup : int; op : Sim.Event.mux_op; pi : int; psi : int }
  | Fault of { component : Sim.Event.component; up : bool }
  | Lifecycle of { conn : int; op : Sim.Event.lifecycle_op; active : int }

let recorded : Sim.Event.t -> recorded = function
  | Chan_transition { node; channel; from_; to_; cause } ->
    Chan_transition { node; channel; from_; to_; cause }
  | Rcc { link; op; seq; bytes } -> Rcc { link; op; seq; bytes }
  | Detector { node; link; signal } -> Detector { node; link; signal }
  | Activation { node; conn; serial; channel } ->
    Activation { node; conn; serial; channel }
  | Rejoin_timer { node; channel; op } -> Rejoin_timer { node; channel; op }
  | Mux { link; backup; op; pi; psi } -> Mux { link; backup; op; pi; psi }
  | Fault { component; up } -> Fault { component; up }
  | Lifecycle { conn; op; active } -> Lifecycle { conn; op; active }

let events_digest sim =
  let b = Buffer.create 4096 in
  List.iter
    (fun (time, ev) ->
      Buffer.add_string b (hex time);
      Buffer.add_string b
        (Marshal.to_string (recorded ev) [ Marshal.No_sharing ]))
    (Sim.Trace.events (Bcp.Simnet.trace sim));
  Digest.to_hex (Digest.string (Buffer.contents b))

let metrics_digest sim =
  Digest.to_hex
    (Digest.string
       (Eval.Json.to_string
          (Eval.Telemetry.metrics_to_json
             (Sim.Metrics.snapshot (Bcp.Simnet.metrics sim)))))

(* Counts that the digests would also catch, kept readable so a failure
   says at a glance whether the run itself drifted. *)
let summary sim =
  Printf.sprintf "now=%h sent=%d delivered=%d dropped=%d confirms=%d \
                  recoveries=%d events=%d"
    (Sim.Engine.now (Bcp.Simnet.engine sim))
    (Bcp.Simnet.rcc_messages_sent sim)
    (Bcp.Simnet.control_messages_delivered sim)
    (Bcp.Simnet.rcc_messages_dropped sim)
    (Bcp.Simnet.heartbeat_confirms sim)
    (Bcp.Simnet.heartbeat_recoveries sim)
    (Sim.Trace.event_count (Bcp.Simnet.trace sim))

let first_primary_link ns =
  match Bcp.Netstate.dconns ns with
  | c :: _ -> List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path)
  | [] -> Alcotest.fail "empty establishment"

(* Clean: one link of a loaded primary fails once the streams run. *)
let clean ?(telemetry = true) () =
  let ns = (Lazy.force est4).Eval.Setup.ns in
  let sim = Bcp.Simnet.create ~config:hb_config ~telemetry ns in
  Bcp.Simnet.fail_link sim ~at:0.01 (first_primary_link ns);
  Bcp.Simnet.run ~until:0.06 sim;
  Bcp.Simnet.finalize sim;
  sim

(* Loss 0.2 with duplication and jitter, plus two gray links that
   silently eat every message: retransmits, dedup, sender-side drops and
   false confirmations all run. *)
let lossy_gray ?(telemetry = true) () =
  let ns = (Lazy.force est4).Eval.Setup.ns in
  let sim = Bcp.Simnet.create ~config:hb_config ~telemetry ns in
  let imp =
    Failures.Impair.create ~seed:7
      ~default:(Failures.Impair.make ~loss:0.2 ~dup:0.1 ~jitter:5e-4 ())
      ()
  in
  List.iter
    (fun gl ->
      Failures.Impair.set_link imp ~link:gl (Failures.Impair.make ~gray:true ()))
    [ 3; 17 ];
  Bcp.Simnet.set_impairment sim imp;
  Bcp.Simnet.fail_link sim ~at:0.01 (first_primary_link ns);
  Bcp.Simnet.run ~until:0.08 sim;
  Bcp.Simnet.finalize sim;
  sim

(* The second scenario of [bcp_sim chaos --seed 7 --loss 0.2 --detector
   heartbeat] on the 8x8 torus, cut short.  Its dense traffic has a
   heartbeat sent while another link's pump is due at the same instant
   (at t = 0x1.5d8bece815de2p-4): pumping that beat inline would send it
   first and shift every later impairment draw. *)
let torus8_lossy ?(telemetry = true) () =
  let ns = (Lazy.force est8).Eval.Setup.ns in
  let sim = Bcp.Simnet.create ~config:hb_config ~telemetry ns in
  Bcp.Simnet.set_impairment sim
    (Failures.Impair.create ~seed:(7 + 104729)
       ~default:(Failures.Impair.make ~loss:0.2 ~dup:0.1 ~jitter:5e-4 ())
       ());
  Bcp.Simnet.fail_link sim ~at:0.01 187;
  Bcp.Simnet.run ~until:0.1 sim;
  Bcp.Simnet.finalize sim;
  sim

(* Swarm-style: seeded scheduler perturbation of messages and timers,
   light loss, and a node failure and a link failure, both repaired;
   [perturbed] adds an auditing monitor. *)
let perturbed_sim ?monitor () =
  let ns = (Lazy.force est4).Eval.Setup.ns in
  let sim = Bcp.Simnet.create ~config:hb_config ?monitor ns in
  let sched =
    Sim.Schedule.create ~seed:102
      (Sim.Schedule.make ~msg_delay:1e-3 ~msg_rate:0.3 ~timer_delay:1e-3
         ~timer_rate:0.3 ())
  in
  Sim.Schedule.attach sched (Bcp.Simnet.engine sim);
  Bcp.Simnet.set_impairment sim
    (Failures.Impair.create ~seed:101
       ~default:(Failures.Impair.make ~loss:0.05 ~dup:0.02 ~jitter:2e-4 ())
       ());
  Bcp.Simnet.fail_node sim ~at:0.008 5;
  Bcp.Simnet.fail_link sim ~at:0.02 (first_primary_link ns);
  Bcp.Simnet.repair_link sim ~at:0.05 (first_primary_link ns);
  Bcp.Simnet.repair_node sim ~at:0.055 5;
  Bcp.Simnet.run ~until:0.09 sim;
  Bcp.Simnet.finalize sim;
  (sim, sched)

let perturbed () =
  let ns = (Lazy.force est4).Eval.Setup.ns in
  let monitor =
    Sim.Monitor.create
      ~context:(Eval.Audit.context_of_netstate ns)
      ~decode_channel:Eval.Audit.decode_cid ()
  in
  let sim, sched = perturbed_sim ~monitor () in
  ( sim,
    Printf.sprintf "perturbed=%d monitor=%d violations=%d coverage=%s"
      (Sim.Schedule.perturbed sched)
      (Sim.Monitor.events_seen monitor)
      (List.length (Sim.Monitor.violations monitor))
      (String.concat "," (Sim.Monitor.coverage monitor)) )

let check_episode name sim ~extra expected =
  let actual =
    [
      ("summary", summary sim ^ extra);
      ("records", records_digest sim);
      ("events", events_digest sim);
      ("metrics", metrics_digest sim);
    ]
  in
  List.iter2
    (fun (k, want) (k', got) ->
      assert (k = k');
      Alcotest.(check string) (Printf.sprintf "%s %s" name k) want got)
    expected actual

let golden_clean =
  [
    ( "summary",
      "now=0x1.eb851eb851eb8p-5 sent=2081 delivered=1974 dropped=9 confirms=2 \
       recoveries=0 events=6220" );
    ("records", "18f688400d1e0fb4864263bee64e3fb1");
    ("events", "608875b4b3f84a6459e1c9143169d446");
    ("metrics", "ada7a3c307756ac4814ba7f48318dd61");
  ]

let golden_lossy_gray =
  [
    ( "summary",
      "now=0x1.47ae147ae147bp-4 sent=4603 delivered=2590 dropped=75 \
       confirms=6 recoveries=0 events=10612" );
    ("records", "94d003e5a2eab9cf3870913dec4e56c7");
    ("events", "54722fa6b1d800a4001ab5425101ecca");
    ("metrics", "af68c4036030078597a8092544b3d109");
  ]

let golden_perturbed =
  [
    ( "summary",
      "now=0x1.70a3d70a3d70ap-4 sent=3483 delivered=2783 dropped=42 \
       confirms=13 recoveries=5 events=9832 perturbed=4589 \
       monitor=9832 violations=0 \
       coverage=det:clear,det:confirm,det:suspect,outcome:FD---,outcome:FD-A-,outcome:FD-AS,outcome:FDR--,outcome:FDRA-,outcome:FDRAS,rcc:ack,rcc:deliver,rcc:drop,rcc:retransmit,rcc:send,timer:cancelled,timer:started,trans:B>P:activate,trans:B>U:detect,trans:B>U:report,trans:P>U:detect,trans:P>U:report,trans:U>B:rejoin" );
    ("records", "d313c79d5c5e78eecf7fc95911ef53c4");
    ("events", "dab6c2245f2552496ebc48253612ad8d");
    ("metrics", "04890d03ad1b232e513141301500cf06");
  ]

let test_clean () = check_episode "clean" (clean ()) ~extra:"" golden_clean

(* Telemetry observes a run without changing it: the episode run with
   no event stream, no counters and no monitor keeps its records. *)
let untraced golden run () =
  Alcotest.(check string)
    "records without telemetry" (List.assoc "records" golden)
    (records_digest (run ()))

let test_clean_untraced = untraced golden_clean (clean ~telemetry:false)

let test_lossy_gray () =
  check_episode "loss 0.2 + gray" (lossy_gray ()) ~extra:"" golden_lossy_gray

let golden_torus8_lossy =
  [
    ( "summary",
      "now=0x1.999999999999ap-4 sent=20380 delivered=14803 dropped=33 \
       confirms=4 recoveries=0 events=51989" );
    ("records", "e0b6a1e9e55c0c729efd1306ca336b8e");
    ("events", "9ff91cefcce7fe03aef28a274bcad964");
    ("metrics", "19daa0c4bc35abd5ff4dcfcee6c78a04");
  ]

let test_torus8_lossy () =
  check_episode "torus8 loss 0.2" (torus8_lossy ()) ~extra:"" golden_torus8_lossy

let test_lossy_gray_untraced =
  untraced golden_lossy_gray (lossy_gray ~telemetry:false)

let test_torus8_lossy_untraced =
  untraced golden_torus8_lossy (torus8_lossy ~telemetry:false)

let test_perturbed_untraced =
  untraced golden_perturbed (fun () -> fst (perturbed_sim ()))

let test_perturbed () =
  let sim, extra = perturbed () in
  check_episode "perturbed" sim ~extra:(" " ^ extra) golden_perturbed

(* The four recorded streams, replayed into [Sim.Monitor] and into its
   reference twin over the episode's own network context: both must
   report the same violations, coverage, timelines and event count. *)
let twin name sim =
  let ns = Bcp.Simnet.netstate sim in
  let events = Sim.Trace.events (Bcp.Simnet.trace sim) in
  match
    Monitor_twin.compare
      ~context:(Eval.Audit.context_of_netstate ns)
      ~decode_channel:Eval.Audit.decode_cid events
  with
  | None -> ()
  | Some what -> Alcotest.failf "%s: monitor and reference differ in %s" name what

let test_twin () =
  twin "clean" (clean ());
  twin "loss 0.2 + gray" (lossy_gray ());
  twin "perturbed" (fst (perturbed ()));
  twin "torus8 loss 0.2" (torus8_lossy ())

let () =
  Alcotest.run "golden"
    [
      ( "torus4 heartbeat",
        [
          Alcotest.test_case "clean" `Quick test_clean;
          Alcotest.test_case "clean untraced" `Quick test_clean_untraced;
          Alcotest.test_case "loss 0.2 + gray" `Quick test_lossy_gray;
          Alcotest.test_case "loss 0.2 + gray untraced" `Quick
            test_lossy_gray_untraced;
          Alcotest.test_case "perturbed + monitor" `Quick test_perturbed;
          Alcotest.test_case "perturbed untraced" `Quick test_perturbed_untraced;
        ] );
      ( "torus8 heartbeat",
        [
          Alcotest.test_case "loss 0.2, same-instant pump" `Quick test_torus8_lossy;
          Alcotest.test_case "loss 0.2 untraced" `Quick test_torus8_lossy_untraced;
        ] );
      ( "monitor twin",
        [ Alcotest.test_case "recorded streams" `Quick test_twin ] );
    ]
