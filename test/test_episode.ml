(* Pinned outputs of every evaluation that runs event-driven recovery
   episodes, and the [Eval.Episode.run] they share.

   Each site case runs one experiment on the 4x4 torus and digests three
   things: its outcome values (every float to the bit, through
   [Marshal]), the text of its report, and, where the experiment takes a
   telemetry collector, the merged metrics and the tagged event stream.
   The digests were recorded before these experiments shared
   [Episode.run], so they pin the contract it keeps: the same faults,
   impairments, perturbations and seeds, scheduled in the same order. *)

let est4 = lazy (Eval.Setup.build Eval.Setup.Torus4)
let ns4 () = (Lazy.force est4).Eval.Setup.ns
let digest s = Digest.to_hex (Digest.string s)
let values v = digest (Marshal.to_string v [ Marshal.No_sharing ])
let text r = digest (Eval.Report.render r)

let telemetry obs =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Eval.Json.to_string
       (Eval.Telemetry.metrics_to_json (Eval.Telemetry.metrics obs)));
  List.iter
    (fun e ->
      Buffer.add_string b
        (Eval.Json.to_string (Eval.Telemetry.tagged_to_json e));
      Buffer.add_char b '\n')
    (Eval.Telemetry.events obs);
  digest (Buffer.contents b)

let check name expected actual =
  List.iter2
    (fun (k, want) (k', got) ->
      assert (k = k');
      Alcotest.(check string) (Printf.sprintf "%s %s" name k) want got)
    expected actual

(* ---------- the sites ---------- *)

let test_scheme_coverage () =
  check "scheme coverage"
    [ ("report", "26b18297a4eb5e0df174da12b8d9c2fe") ]
    [ ("report", text (Eval.Ablations.scheme_coverage ~seed:5 (ns4 ()))) ]

let chaos_case name ~detector ?levels expected () =
  let obs = Eval.Telemetry.create ~events:true in
  let outcomes =
    Eval.Chaos.run ~obs ~seed:11 ~scenario_count:3 ~detector ?levels (ns4 ())
  in
  check name expected
    [
      ("values", values outcomes);
      ("report", text (Eval.Chaos.report outcomes));
      ("telemetry", telemetry obs);
    ]

(* Every default level, the clean one included. *)
let test_chaos_oracle =
  chaos_case "chaos oracle" ~detector:`Oracle
    [
      ("values", "05732f63d74c12b1f5621645d76d6afa");
      ("report", "9ac15ebc05ccc3670959f4e35b874823");
      ("telemetry", "4874ca86551a74842f3a42a259ebdfb5");
    ]

let test_chaos_heartbeat =
  chaos_case "chaos heartbeat" ~detector:`Heartbeat
    ~levels:
      [
        Eval.Chaos.level 0.0;
        Eval.Chaos.level 0.1 ~dup:0.05 ~jitter:3e-4;
        Eval.Chaos.level 0.05 ~dup:0.02 ~jitter:2e-4 ~gray_frac:0.05;
      ]
    [
      ("values", "a370547ce6bb4133eccf04cb74c682b1");
      ("report", "625562ac8d272d1940f27a0b3d02ed1c");
      ("telemetry", "f3a774c09be5ff11fd4b9555493127d3");
    ]

let test_churn () =
  let obs = Eval.Telemetry.create ~events:true in
  let outcomes =
    Eval.Churn.run ~obs ~seed:3 ~events:1500 ~offered:[ 4.0 ] ~fault_every:5.0
      ~windows:4 Eval.Setup.Torus4
  in
  Alcotest.(check bool) "fault episodes ran" true
    (List.for_all (fun o -> o.Eval.Churn.episodes > 0) outcomes);
  check "churn"
    [
      ("values", "6e03f8022b7e36e462da720b21c42985");
      ("report", "a1397f8c368f60e505038c63ebbce821");
      ("telemetry", "065de13d2e4c621dd1e88ced1b02438e");
    ]
    [
      ("values", values outcomes);
      ("report", text (Eval.Churn.summary_report outcomes));
      ("telemetry", telemetry obs);
    ]

let test_message_loss () =
  let rows = Eval.Message_loss.run ~seed:42 Eval.Setup.Torus4 in
  check "message loss"
    [
      ("values", "d695bb7d245373dfc7a5f922a5e00eac");
      ("report", "3f5b826890c9e92045aa0b5a1f28faaa");
    ]
    [ ("values", values rows); ("report", text (Eval.Message_loss.report rows)) ]

let test_multi_failure () =
  let obs = Eval.Telemetry.create ~events:true in
  let r = Eval.Multi_failure.simulate ~obs ~seed:42 Eval.Setup.Torus4 in
  check "multi failure"
    [
      ("report", "bf2aa626bd39986bf1e1275a884a4c7c");
      ("telemetry", "ac644db6ebec7909cb814438e2a337bc");
    ]
    [ ("report", text r); ("telemetry", telemetry obs) ]

let test_recovery_delay () =
  let obs = Eval.Telemetry.create ~events:true in
  let stats =
    Eval.Recovery_delay.measure ~obs ~seed:11 ~scenario_count:6 (ns4 ())
  in
  check "recovery delay"
    [
      ("values", "953759a88ecb31f22aebad31930acab9");
      ("report", "324bf267491cb5f4b9031a27659cf531");
      ("telemetry", "54b345b69f8214c10d08c6f153c85951");
    ]
    [
      ("values", values stats);
      ("report", text (Eval.Recovery_delay.report [ stats ]));
      ("telemetry", telemetry obs);
    ]

let test_compare_schemes () =
  let r =
    Eval.Recovery_delay.compare_schemes ~seed:11 ~scenario_count:4 (ns4 ())
  in
  check "compare schemes"
    [ ("report", "0df403ddc181b99941d6d036c135b721") ]
    [ ("report", text r) ]

let swarm_case name ~detector expected () =
  let obs = Eval.Telemetry.create ~events:true in
  let r = Eval.Swarm.run ~obs ~seed:11 ~budget:8 ~detector (ns4 ()) in
  check name expected
    [
      ("values", digest (Eval.Json.to_string (Eval.Swarm.report_to_json r)));
      ("telemetry", telemetry obs);
    ]

let test_swarm_heartbeat =
  swarm_case "swarm heartbeat" ~detector:`Heartbeat
    [
      ("values", "4b925634d0a28ea8fd15b310fb7d9136");
      ("telemetry", "493b6706321317e58cdf9be0ed161504");
    ]

let test_swarm_oracle =
  swarm_case "swarm oracle" ~detector:`Oracle
    [
      ("values", "faca546f45e2efabce4f80d3bcd7e45d");
      ("telemetry", "a5b7c704b4a3e97da32ac6dd073251f5");
    ]

(* ---------- Episode.run ---------- *)

let hb_config =
  {
    Bcp.Protocol.default_config with
    Bcp.Protocol.detector = Bcp.Protocol.Heartbeat Bcp.Detector.default_params;
  }

(* A swarm-style adversary: a repaired link fault, a node fault, light
   loss, one gray link and scheduler perturbation. *)
let plan () =
  let link =
    match Bcp.Netstate.dconns (ns4 ()) with
    | c :: _ -> List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path)
    | [] -> Alcotest.fail "empty establishment"
  in
  {
    Failures.Plan.label = "repair + gray";
    faults =
      [
        {
          component = Net.Component.Link link;
          fail_at = 0.01;
          repair_at = Some 0.05;
        };
        { component = Net.Component.Node 5; fail_at = 0.02; repair_at = None };
      ];
    impair = Failures.Impair.make ~loss:0.05 ~dup:0.02 ~jitter:2e-4 ();
    gray_links = [ 3 ];
    perturb = Sim.Schedule.make ~msg_delay:1e-3 ~msg_rate:0.2 ();
  }

let plan_seed = 77
let impair_seed = Sim.Prng.derive ~seed:plan_seed ~index:101
let perturb_seed = Sim.Prng.derive ~seed:plan_seed ~index:102

let monitor ns =
  Sim.Monitor.create
    ~context:(Eval.Audit.context_of_netstate ns)
    ~decode_channel:Eval.Audit.decode_cid ()

let hex f = Printf.sprintf "%h" f
let opt f = function None -> "-" | Some v -> f v

let records_digest records =
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
  digest (String.concat ";" (List.map line records))

(* The hand-written sequence each swarm scenario ran before
   [Episode.run]. *)
let reference_records (plan : Failures.Plan.t) =
  let ns = ns4 () in
  let sim = Bcp.Simnet.create ~config:hb_config ~monitor:(monitor ns) ns in
  let sched = Sim.Schedule.create ~seed:perturb_seed plan.perturb in
  Sim.Schedule.attach sched (Bcp.Simnet.engine sim);
  let imp = Failures.Impair.create ~seed:impair_seed ~default:plan.impair () in
  List.iter
    (fun link ->
      Failures.Impair.set_link imp ~link (Failures.Impair.make ~gray:true ()))
    plan.gray_links;
  Bcp.Simnet.set_impairment sim imp;
  List.iter
    (fun (f : Failures.Plan.fault) ->
      match f.component with
      | Net.Component.Link l ->
        Bcp.Simnet.fail_link sim ~at:f.fail_at l;
        Option.iter (fun at -> Bcp.Simnet.repair_link sim ~at l) f.repair_at
      | Net.Component.Node v ->
        Bcp.Simnet.fail_node sim ~at:f.fail_at v;
        Option.iter (fun at -> Bcp.Simnet.repair_node sim ~at v) f.repair_at)
    plan.faults;
  Bcp.Simnet.run ~until:0.1 sim;
  Bcp.Simnet.finalize sim;
  (Bcp.Simnet.records sim, Sim.Schedule.perturbed sched)

(* [Episode.run] takes the plan to the same records as the hand-written
   sequence, and both match what that sequence recorded. *)
let test_plan () =
  let plan = plan () in
  let records, perturbed = reference_records plan in
  let ns = ns4 () in
  let o =
    Eval.Episode.run ~monitor:(monitor ns) ~seeds:(impair_seed, perturb_seed)
      ~config:hb_config ~until:0.1 ns plan
  in
  let expected =
    [ ("records", "810b1673c37f30f0f65783aa904d6971"); ("perturbed", "1386") ]
  in
  check "reference" expected
    [
      ("records", records_digest records);
      ("perturbed", string_of_int perturbed);
    ];
  check "episode" expected
    [
      ("records", records_digest o.records);
      ("perturbed", string_of_int o.perturbed);
    ];
  Alcotest.(check int) "affected = recovered + unrecovered"
    (List.length o.affected)
    (List.length o.recovered + List.length o.unrecovered);
  Alcotest.(check bool) "the gray link drops RCC messages" true
    (o.rcc_dropped > 0)

(* ---------- scenario counts past the population ---------- *)

let test_sample_at_most () =
  let draw k n = Sim.Prng.sample_at_most (Sim.Prng.create 29) k n in
  Alcotest.(check (list int)) "within the population: the plain sample"
    (Sim.Prng.sample_without_replacement (Sim.Prng.create 29) 5 20)
    (draw 5 20);
  Alcotest.(check (list int)) "past it: every id once"
    (List.init 20 Fun.id)
    (List.sort Int.compare (draw 100 20))

(* A ring of 4 nodes has 8 links: a count of 100 samples every link, and
   every node, once instead of raising. *)
let test_scenarios_past_population () =
  let topo = Net.Builders.ring ~nodes:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  ignore
    (Eval.Setup.establish_all ns
       (Workload.Generator.all_pairs ~mux_degree:3 topo));
  let stats = Eval.Recovery_delay.measure ~scenario_count:100 ns in
  Alcotest.(check int) "every link and every node" (8 + 4)
    stats.Eval.Recovery_delay.scenarios;
  match
    Eval.Chaos.run ~scenario_count:100 ~levels:[ Eval.Chaos.level 0.0 ] ns
  with
  | [ o ] -> Alcotest.(check int) "every link" 8 o.Eval.Chaos.scenarios
  | _ -> Alcotest.fail "one level"

let () =
  Alcotest.run "episode"
    [
      ( "sites",
        [
          Alcotest.test_case "scheme coverage" `Quick test_scheme_coverage;
          Alcotest.test_case "chaos oracle" `Quick test_chaos_oracle;
          Alcotest.test_case "chaos heartbeat" `Quick test_chaos_heartbeat;
          Alcotest.test_case "churn" `Quick test_churn;
          Alcotest.test_case "message loss" `Quick test_message_loss;
          Alcotest.test_case "multi failure" `Quick test_multi_failure;
          Alcotest.test_case "recovery delay" `Quick test_recovery_delay;
          Alcotest.test_case "compare schemes" `Quick test_compare_schemes;
          Alcotest.test_case "swarm heartbeat" `Quick test_swarm_heartbeat;
          Alcotest.test_case "swarm oracle" `Quick test_swarm_oracle;
        ] );
      ( "episode run",
        [
          Alcotest.test_case "plan with repair and gray link" `Quick test_plan;
        ] );
      ( "scenario count",
        [
          Alcotest.test_case "sample at most" `Quick test_sample_at_most;
          Alcotest.test_case "past the population" `Quick
            test_scenarios_past_population;
        ] );
    ]
