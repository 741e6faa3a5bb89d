(* Tests for the adversarial deterministic-simulation swarm: scheduler
   perturbation (Sim.Schedule + engine event classes), combinatorial
   fault plans (Failures.Plan), lineage-reproducible coverage-guided
   search (Eval.Swarm) and the delta-debugging minimizer with its
   replayable bcp-audit/v1 artifacts (Eval.Minimize). *)

let cid conn serial = Bcp.Protocol.cid ~conn ~serial

let trans node channel from_ to_ cause =
  Sim.Event.Chan_transition { node; channel; from_; to_; cause }

let torus4 = Eval.Setup.topology_of Eval.Setup.Torus4

(* One establishment shared by every simulator-level test below; each
   test creates its own Simnet over it (reconfiguration writeback is off
   by default, so runs do not contaminate each other). *)
let est4 = lazy (Eval.Setup.build Eval.Setup.Torus4)

(* ---------- engine perturbation hook ---------- *)

let test_engine_klass_perturb () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  let record tag () = order := (tag, Sim.Engine.now e) :: !order in
  Sim.Engine.set_perturb e
    (Some
       (fun klass ~delay:_ ->
         match klass with
         | Sim.Engine.Message -> 0.5
         | Sim.Engine.Timer -> 0.1
         | Sim.Engine.Internal -> 0.0));
  ignore
    (Sim.Engine.schedule_after ~klass:Sim.Engine.Message e ~delay:0.1
       (record "msg"));
  ignore
    (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer e ~delay:0.1
       (record "timer"));
  ignore (Sim.Engine.schedule_after e ~delay:0.1 (record "internal"));
  Sim.Engine.run e;
  let fired = List.rev !order in
  Alcotest.(check (list string))
    "internal first, then delayed timer, then delayed message"
    [ "internal"; "timer"; "msg" ]
    (List.map fst fired);
  List.iter2
    (fun (tag, at) expect ->
      Alcotest.(check (float 1e-12)) (tag ^ " fire time") expect at)
    fired
    [ 0.1; 0.2; 0.6 ]

(* The hook must never be consulted for Internal events even when set:
   fault injections and the RCC pump stay exactly on time. *)
let test_internal_never_perturbed () =
  let e = Sim.Engine.create () in
  let consulted = ref 0 in
  Sim.Engine.set_perturb e
    (Some
       (fun _ ~delay:_ ->
         incr consulted;
         0.0));
  ignore (Sim.Engine.schedule e ~at:0.3 (fun () -> ()));
  ignore (Sim.Engine.schedule_after e ~delay:0.1 (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.(check int) "hook never consulted for Internal" 0 !consulted

(* ---------- Sim.Schedule ---------- *)

let test_schedule_make_validation () =
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "negative delay" (fun () ->
      Sim.Schedule.make ~msg_delay:(-1.0) ());
  expect_invalid "rate above 1" (fun () -> Sim.Schedule.make ~msg_rate:1.5 ());
  expect_invalid "nan delay" (fun () ->
      Sim.Schedule.make ~timer_delay:Float.nan ());
  Alcotest.(check bool) "disabled is disabled" true
    (Sim.Schedule.is_disabled Sim.Schedule.disabled);
  Alcotest.(check bool) "delay without rate is disabled" true
    (Sim.Schedule.is_disabled (Sim.Schedule.make ~msg_delay:0.01 ()));
  Alcotest.(check bool) "live profile is not disabled" false
    (Sim.Schedule.is_disabled
       (Sim.Schedule.make ~msg_delay:0.01 ~msg_rate:0.5 ()))

let test_schedule_determinism_and_bounds () =
  let profile =
    Sim.Schedule.make ~msg_delay:0.002 ~msg_rate:0.5 ~timer_delay:0.01
      ~timer_rate:0.25 ()
  in
  let a = Sim.Schedule.create ~seed:9 profile in
  let b = Sim.Schedule.create ~seed:9 profile in
  let c = Sim.Schedule.create ~seed:10 profile in
  let draws_differ = ref false in
  for _ = 1 to 500 do
    let da = Sim.Schedule.hook a Sim.Engine.Message ~delay:0.001 in
    let db = Sim.Schedule.hook b Sim.Engine.Message ~delay:0.001 in
    let dc = Sim.Schedule.hook c Sim.Engine.Message ~delay:0.001 in
    Alcotest.(check (float 0.0)) "same seed, same draw" da db;
    if da <> dc then draws_differ := true;
    Alcotest.(check bool) "message delay within bound" true
      (da >= 0.0 && da <= 0.002);
    let ta = Sim.Schedule.hook a Sim.Engine.Timer ~delay:0.001 in
    let tb = Sim.Schedule.hook b Sim.Engine.Timer ~delay:0.001 in
    Alcotest.(check (float 0.0)) "timer draws agree too" ta tb;
    Alcotest.(check bool) "timer delay within bound" true
      (ta >= 0.0 && ta <= 0.01);
    Alcotest.(check (float 0.0)) "internal is never delayed" 0.0
      (Sim.Schedule.hook a Sim.Engine.Internal ~delay:0.001)
  done;
  Alcotest.(check bool) "different seeds diverge" true !draws_differ;
  Alcotest.(check int) "perturbation counters agree" (Sim.Schedule.perturbed a)
    (Sim.Schedule.perturbed b);
  Alcotest.(check bool) "a live profile perturbs something" true
    (Sim.Schedule.perturbed a > 0)

(* Run one failure scenario on the shared torus and return its full
   telemetry stream serialized to JSONL (byte-comparable). *)
let scenario_trace ?schedule () =
  let est = Lazy.force est4 in
  let sim = Bcp.Simnet.create ~telemetry:true est.Eval.Setup.ns in
  (match schedule with
  | Some sched -> Sim.Schedule.attach sched (Bcp.Simnet.engine sim)
  | None -> ());
  Bcp.Simnet.fail_link sim ~at:0.01 3;
  Bcp.Simnet.run ~until:0.2 sim;
  Bcp.Simnet.finalize sim;
  Capture.output (fun oc ->
      Eval.Telemetry.events_to_jsonl oc
        (List.map
           (fun (t, ev) -> (0, t, ev))
           (Sim.Trace.events (Bcp.Simnet.trace sim))))

let test_disabled_schedule_byte_identical () =
  let bare = scenario_trace () in
  let sched = Sim.Schedule.create ~seed:5 Sim.Schedule.disabled in
  let with_disabled = scenario_trace ~schedule:sched () in
  Alcotest.(check int) "no event was perturbed" 0 (Sim.Schedule.perturbed sched);
  Alcotest.(check bool) "trace byte-identical to no-schedule run" true
    (String.equal bare with_disabled)

let test_enabled_schedule_changes_run () =
  let profile =
    Sim.Schedule.make ~msg_delay:0.005 ~msg_rate:0.5 ~timer_delay:0.01
      ~timer_rate:0.5 ()
  in
  let sched = Sim.Schedule.create ~seed:5 profile in
  let perturbed_trace = scenario_trace ~schedule:sched () in
  Alcotest.(check bool) "events were actually delayed" true
    (Sim.Schedule.perturbed sched > 0);
  Alcotest.(check bool) "trace differs from the bare run" false
    (String.equal (scenario_trace ()) perturbed_trace);
  (* Same seed + profile replays the exact same perturbed run. *)
  let again =
    scenario_trace ~schedule:(Sim.Schedule.create ~seed:5 profile) ()
  in
  Alcotest.(check bool) "perturbed run replays byte-identically" true
    (String.equal perturbed_trace again)

(* ---------- Failures.Plan ---------- *)

let test_plan_generate_deterministic () =
  let gen seed = Failures.Plan.generate (Sim.Prng.create seed) torus4 () in
  Alcotest.(check string) "same seed, same plan"
    (Failures.Plan.to_json (gen 3))
    (Failures.Plan.to_json (gen 3));
  Alcotest.(check bool) "different seeds explore different plans" false
    (String.equal
       (Failures.Plan.to_json (gen 3))
       (Failures.Plan.to_json (gen 4)))

let check_plan_valid label (p : Failures.Plan.t) =
  Alcotest.(check bool) (label ^ ": at least one fault") true
    (List.length p.Failures.Plan.faults >= 1);
  List.iter
    (fun f ->
      Alcotest.(check bool) (label ^ ": fail_at in window") true
        (f.Failures.Plan.fail_at >= 0.009);
      match f.Failures.Plan.repair_at with
      | None -> ()
      | Some r ->
        Alcotest.(check bool) (label ^ ": repair strictly after failure") true
          (r > f.Failures.Plan.fail_at))
    p.Failures.Plan.faults;
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Failures.Plan.fail_at <= b.Failures.Plan.fail_at && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) (label ^ ": faults sorted by time") true
    (sorted p.Failures.Plan.faults)

let test_plan_mutate_valid_and_deterministic () =
  let base = Failures.Plan.generate (Sim.Prng.create 7) torus4 () in
  check_plan_valid "generated" base;
  (* Walk a long mutation chain: every step stays valid, and replaying
     the chain from the same seeds reproduces it exactly. *)
  let walk seed =
    let p = ref base in
    for i = 1 to 20 do
      p := Failures.Plan.mutate (Sim.Prng.create (seed + i)) torus4 !p;
      check_plan_valid (Printf.sprintf "mutation %d" i) !p
    done;
    Failures.Plan.to_json !p
  in
  Alcotest.(check string) "mutation chain replays" (walk 100) (walk 100)

let test_plan_random_chaos_baseline () =
  let p = Failures.Plan.random_chaos (Sim.Prng.create 5) torus4 in
  Alcotest.(check int) "single fault" 1 (List.length p.Failures.Plan.faults);
  Alcotest.(check bool) "no repair" true
    (List.for_all
       (fun f -> f.Failures.Plan.repair_at = None)
       p.Failures.Plan.faults);
  Alcotest.(check bool) "no scheduler perturbation" true
    (Sim.Schedule.is_disabled p.Failures.Plan.perturb)

(* ---------- lineage reproducibility ---------- *)

let test_plan_of_lineage () =
  let plan lineage =
    Failures.Plan.to_json
      (Eval.Swarm.plan_of_lineage ~seed:11 ~strategy:Eval.Swarm.Coverage
         ~max_faults:3 ~horizon:0.25 torus4 lineage)
  in
  Alcotest.(check string) "lineage replays exactly" (plan [ 3; 0; 1 ])
    (plan [ 3; 0; 1 ]);
  Alcotest.(check bool) "sibling lineages diverge" false
    (String.equal (plan [ 3; 0; 1 ]) (plan [ 3; 0; 2 ]));
  Alcotest.(check bool) "different roots diverge" false
    (String.equal (plan [ 3 ]) (plan [ 4 ]));
  (match
     (Eval.Swarm.plan_of_lineage ~seed:11 ~strategy:Eval.Swarm.Random
        ~max_faults:3 ~horizon:0.25 torus4 [ 2 ])
       .Failures.Plan.faults
   with
  | [ _ ] -> ()
  | fs -> Alcotest.failf "random root should hold 1 fault, got %d"
            (List.length fs));
  match
    Eval.Swarm.plan_of_lineage ~seed:11 ~strategy:Eval.Swarm.Coverage
      ~max_faults:3 ~horizon:0.25 torus4 []
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty lineage should be rejected"

(* ---------- swarm determinism and coverage ---------- *)

let swarm_summary ?(strategy = Eval.Swarm.Coverage) ~jobs ~budget () =
  let est = Lazy.force est4 in
  let saved = Sim.Pool.current_jobs () in
  Sim.Pool.set_jobs jobs;
  let report =
    Eval.Swarm.run ~seed:7 ~budget ~strategy ~network:"torus4"
      est.Eval.Setup.ns
  in
  Sim.Pool.set_jobs saved;
  report

let test_swarm_jobs_byte_identical () =
  let summary jobs =
    Eval.Json.to_string
      (Eval.Swarm.report_to_json (swarm_summary ~jobs ~budget:12 ()))
  in
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
    at 0
  in
  let one = summary 1 in
  Alcotest.(check bool) "summary mentions the swarm schema" true
    (contains ~needle:"bcp-swarm/v1" one);
  Alcotest.(check string) "jobs=1 and jobs=2 summaries byte-identical" one
    (summary 2);
  Alcotest.(check string) "repeated run byte-identical" one (summary 1)

let test_swarm_coverage_beats_random () =
  let coverage strategy =
    List.length (swarm_summary ~strategy ~jobs:2 ~budget:16 ()).Eval.Swarm.coverage
  in
  let guided = coverage Eval.Swarm.Coverage in
  let random = coverage Eval.Swarm.Random in
  Alcotest.(check bool)
    (Printf.sprintf "coverage-guided (%d) strictly beats random (%d)" guided
       random)
    true (guided > random)

let test_swarm_report_shape () =
  let r = swarm_summary ~jobs:2 ~budget:8 () in
  Alcotest.(check int) "budget honoured" 8 r.Eval.Swarm.executed;
  Alcotest.(check bool) "coverage non-empty" true
    (r.Eval.Swarm.coverage <> []);
  Alcotest.(check bool) "curve is monotone" true
    (let rec mono = function
       | (e1, c1) :: ((e2, c2) :: _ as rest) ->
         e1 < e2 && c1 <= c2 && mono rest
       | _ -> true
     in
     mono r.Eval.Swarm.curve);
  Alcotest.(check (list Alcotest.string)) "protocol audits green" []
    (List.map
       (fun v -> Sim.Monitor.kind_to_string v.Eval.Swarm.kind)
       r.Eval.Swarm.violations)

(* ---------- minimizer + artifacts ---------- *)

(* The sentinel: a clean conn-6 recovery trace whose origin "detect" is
   rewritten into a propagated "report", padded with unrelated healthy
   recoveries on other connections that ddmin must strip away. *)
let clean_recovery conn t0 =
  [
    (0, t0, trans 0 (cid conn 0) Sim.Event.P Sim.Event.U "detect");
    (0, t0 +. 0.001, trans 1 (cid conn 0) Sim.Event.P Sim.Event.U "report");
    ( 0,
      t0 +. 0.002,
      Sim.Event.Activation { node = 1; conn; serial = 1; channel = cid conn 1 }
    );
    (0, t0 +. 0.002, trans 1 (cid conn 1) Sim.Event.B Sim.Event.P "activate");
    (0, t0 +. 0.003, trans 0 (cid conn 1) Sim.Event.B Sim.Event.P "activate");
  ]

let tampered_stream () =
  let tamper conn =
    List.map
      (function
        | sc, time, Sim.Event.Chan_transition ({ cause = "detect"; _ } as tr)
          ->
          (sc, time, Sim.Event.Chan_transition { tr with cause = "report" })
        | ev -> ev)
      (clean_recovery conn 0.01)
  in
  (* healthy noise before and after the tampered recovery *)
  clean_recovery 2 0.001 @ tamper 6 @ clean_recovery 9 0.02

let test_minimizer_sentinel () =
  let stream = tampered_stream () in
  match Eval.Minimize.minimize ~kind:Sim.Monitor.Phase_order stream with
  | None -> Alcotest.fail "sentinel violation should reproduce"
  | Some o ->
    Alcotest.(check int) "records the original stream length"
      (List.length stream) o.Eval.Minimize.original_events;
    Alcotest.(check bool) "minimized strictly smaller" true
      (List.length o.Eval.Minimize.events < List.length stream);
    Alcotest.(check bool) "oracle replays were spent" true
      (o.Eval.Minimize.replays > 0);
    (* The orphaned report alone is the 1-minimal reproduction. *)
    Alcotest.(check int) "shrunk to a single event" 1
      (List.length o.Eval.Minimize.events);
    (* The minimized stream replays to the same violation. *)
    let replay = Eval.Audit.replay o.Eval.Minimize.events in
    let kinds =
      List.concat_map
        (fun s ->
          List.map
            (fun v -> (v.Sim.Monitor.kind, v.Sim.Monitor.index))
            s.Eval.Audit.violations)
        replay.Eval.Audit.scenarios
    in
    Alcotest.(check bool) "replay reproduces the same kind and index" true
      (List.mem
         ( o.Eval.Minimize.violation.Sim.Monitor.kind,
           o.Eval.Minimize.violation.Sim.Monitor.index )
         kinds);
    Alcotest.(check bool) "and it is the sentinel kind" true
      (o.Eval.Minimize.violation.Sim.Monitor.kind = Sim.Monitor.Phase_order)

let test_minimizer_deterministic () =
  let stream = tampered_stream () in
  let shrink () =
    match Eval.Minimize.minimize ~kind:Sim.Monitor.Phase_order stream with
    | None -> Alcotest.fail "sentinel should reproduce"
    | Some o -> o.Eval.Minimize.events
  in
  Alcotest.(check bool) "two minimizations agree exactly" true
    (shrink () = shrink ())

let test_minimizer_none_when_absent () =
  (* A clean stream reproduces nothing. *)
  Alcotest.(check bool) "no violation, no outcome" true
    (Eval.Minimize.minimize ~kind:Sim.Monitor.Phase_order
       (clean_recovery 6 0.01)
    = None)

let test_artifact_roundtrip () =
  let o =
    match
      Eval.Minimize.minimize ~kind:Sim.Monitor.Phase_order (tampered_stream ())
    with
    | Some o -> o
    | None -> Alcotest.fail "sentinel should reproduce"
  in
  let plan = Failures.Plan.random_chaos (Sim.Prng.create 1) torus4 in
  let artifact =
    Eval.Swarm.artifact_of ~seed:11 ~strategy:Eval.Swarm.Coverage
      ~lineage:[ 0 ] ~plan ~replay_context:false o
  in
  let path = Filename.temp_file "bcp-swarm-artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc (Eval.Json.to_string artifact);
      close_out oc;
      (* bcp_sim audit's loader recognizes the artifact and extracts the
         embedded minimized trace... *)
      match Eval.Audit.load_trace path with
      | Error e -> Alcotest.failf "artifact did not load: %s" e
      | Ok events ->
        Alcotest.(check bool) "embedded trace is the minimized stream" true
          (events = o.Eval.Minimize.events);
        (* ...and replaying it reproduces the sentinel violation. *)
        let replay = Eval.Audit.replay events in
        Alcotest.(check bool) "replay reproduces the violation" true
          (List.exists
             (fun s ->
               List.exists
                 (fun v -> v.Sim.Monitor.kind = Sim.Monitor.Phase_order)
                 s.Eval.Audit.violations)
             replay.Eval.Audit.scenarios))

let test_load_trace_diagnostics () =
  (match Eval.Audit.load_trace "/nonexistent/trace.jsonl" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should be an error");
  let path = Filename.temp_file "bcp-bad-artifact" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"schema\":\"bcp-audit/v1\"}";
      close_out oc;
      match Eval.Audit.load_trace path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "artifact without a trace should be an error")

let () =
  Alcotest.run "swarm"
    [
      ( "engine",
        [
          Alcotest.test_case "event classes and perturb hook" `Quick
            test_engine_klass_perturb;
          Alcotest.test_case "internal events exempt" `Quick
            test_internal_never_perturbed;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "profile validation" `Quick
            test_schedule_make_validation;
          Alcotest.test_case "seeded determinism and bounds" `Quick
            test_schedule_determinism_and_bounds;
          Alcotest.test_case "disabled profile byte-identical" `Slow
            test_disabled_schedule_byte_identical;
          Alcotest.test_case "enabled profile perturbs deterministically"
            `Slow test_enabled_schedule_changes_run;
        ] );
      ( "plan",
        [
          Alcotest.test_case "generate deterministic" `Quick
            test_plan_generate_deterministic;
          Alcotest.test_case "mutate valid and replayable" `Quick
            test_plan_mutate_valid_and_deterministic;
          Alcotest.test_case "random chaos baseline" `Quick
            test_plan_random_chaos_baseline;
          Alcotest.test_case "lineage reproducibility" `Quick
            test_plan_of_lineage;
        ] );
      ( "swarm",
        [
          Alcotest.test_case "jobs-count byte identity" `Slow
            test_swarm_jobs_byte_identical;
          Alcotest.test_case "coverage beats random" `Slow
            test_swarm_coverage_beats_random;
          Alcotest.test_case "report shape" `Slow test_swarm_report_shape;
        ] );
      ( "minimize",
        [
          Alcotest.test_case "sentinel shrinks and replays" `Quick
            test_minimizer_sentinel;
          Alcotest.test_case "minimization deterministic" `Quick
            test_minimizer_deterministic;
          Alcotest.test_case "absent violation yields none" `Quick
            test_minimizer_none_when_absent;
          Alcotest.test_case "artifact round-trip" `Quick
            test_artifact_roundtrip;
          Alcotest.test_case "loader diagnostics" `Quick
            test_load_trace_diagnostics;
        ] );
    ]
