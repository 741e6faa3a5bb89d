(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper at full scale
   (8x8 torus / mesh, 4032 connections) and prints them in the paper's
   layout — this is the reproduction harness proper.

   Part 2 runs the same experiments on reduced (4x4) instances — a
   minutes-to-seconds-scale suite used by CI's bench-smoke job.

   The harness is a correctness tool: every output is a deterministic
   table, gated cell by cell against the committed baselines by
   [compare.exe], and stdout is byte-identical for every [--jobs].  Wall
   clocks are perfbench's job; [--profile] reports the engine's span
   profile on stderr and in the JSON.

   Flags:
     --part1-only / --part2-only   select a part (default: both)
     --jobs N                      domain count for scenario sweeps
     --json FILE                   machine-readable results (bcp-bench/v1)
     --seed N                      PRNG seed (default 42) *)

let seed = ref 42
let double_sample = 300 (* of 2016 double-node pairs; keeps the run minutes-scale *)

(* Every table produced during the run, in reverse emission order. *)
let collected : Eval.Report.t list ref = ref []

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Build a report, print it, and record it for the JSON sink. *)
let table mk =
  let report = mk () in
  collected := report :: !collected;
  Eval.Report.print report

let part1 () =
  let seed = !seed in
  hr "FIGURE 9 (a): spare bandwidth vs load, single backup, 8x8 torus";
  table (fun () ->
      Eval.Spare_bw.report Eval.Setup.Torus8 ~backups:1
        (Eval.Spare_bw.run ~seed Eval.Setup.Torus8 ~backups:1));
  hr "FIGURE 9 (b): spare bandwidth vs load, double backups, 8x8 torus";
  table (fun () ->
      Eval.Spare_bw.report Eval.Setup.Torus8 ~backups:2
        (Eval.Spare_bw.run ~seed Eval.Setup.Torus8 ~backups:2));
  hr "FIGURE 9 (c): spare bandwidth vs load, single backup, 8x8 mesh";
  table (fun () ->
      Eval.Spare_bw.report Eval.Setup.Mesh8 ~backups:1
        (Eval.Spare_bw.run ~seed Eval.Setup.Mesh8 ~backups:1));

  hr "TABLE 1 (a): R_fast, same mux degrees, single backup, 8x8 torus";
  table (fun () ->
      Eval.Rfast.table_same_degree ~seed ~double_sample Eval.Setup.Torus8
        ~backups:1);
  hr "TABLE 1 (b): R_fast, same mux degrees, double backups, 8x8 torus";
  table (fun () ->
      Eval.Rfast.table_same_degree ~seed ~double_sample Eval.Setup.Torus8
        ~backups:2);
  hr "TABLE 1 (c): R_fast, same mux degrees, single backup, 8x8 mesh";
  table (fun () ->
      Eval.Rfast.table_same_degree ~seed ~double_sample Eval.Setup.Mesh8
        ~backups:1);

  hr "TABLE 2 (a): R_fast, mixed mux degrees, single backup, 8x8 torus";
  table (fun () ->
      Eval.Rfast.table_mixed_degrees ~seed ~double_sample Eval.Setup.Torus8
        ~backups:1);
  hr "TABLE 2 (b): R_fast, mixed mux degrees, double backups, 8x8 torus";
  table (fun () ->
      Eval.Rfast.table_mixed_degrees ~seed ~double_sample Eval.Setup.Torus8
        ~backups:2);
  hr "TABLE 2 (c): R_fast, mixed mux degrees, single backup, 8x8 mesh";
  table (fun () ->
      Eval.Rfast.table_mixed_degrees ~seed ~double_sample Eval.Setup.Mesh8
        ~backups:1);

  hr "TABLE 3 (a): R_fast, brute-force multiplexing, 8x8 torus";
  table (fun () ->
      Eval.Rfast.table_brute_force ~seed ~double_sample Eval.Setup.Torus8);
  hr "TABLE 3 (b): R_fast, brute-force multiplexing, 8x8 mesh";
  table (fun () ->
      Eval.Rfast.table_brute_force ~seed ~double_sample Eval.Setup.Mesh8);

  hr "SECTION 5.3: recovery delay vs bound (event-driven BCP, 8x8 torus)";
  let est = Eval.Setup.build ~seed ~backups:1 ~mux_degree:3 Eval.Setup.Torus8 in
  Printf.printf "(established %d, rejected %d, load %.2f%%, spare %.2f%%)\n"
    est.Eval.Setup.established est.Eval.Setup.rejected est.Eval.Setup.load
    est.Eval.Setup.spare;
  table (fun () ->
      Eval.Recovery_delay.report
        [ Eval.Recovery_delay.measure ~seed ~scenario_count:12 est.Eval.Setup.ns ]);

  hr "SECTION 4.2: channel-switching schemes 1/2/3";
  table (fun () ->
      Eval.Recovery_delay.compare_schemes ~seed ~scenario_count:6
        est.Eval.Setup.ns);
  table (fun () -> Eval.Ablations.scheme_coverage ~seed est.Eval.Setup.ns);

  hr "SECTION 4.3: priority-based activation";
  table (fun () ->
      Eval.Ablations.priority_activation ~seed ~double_sample Eval.Setup.Torus8);

  hr "SECTION 7.1/7.4: hot-spot (inhomogeneous) traffic";
  table (fun () -> Eval.Ablations.inhomogeneous ~seed Eval.Setup.Torus8);

  hr "FIGURE 8: message loss during failure recovery (data plane)";
  table (fun () ->
      Eval.Message_loss.report (Eval.Message_loss.run ~seed Eval.Setup.Torus8));

  hr "EXTENSION: spare-aware backup routing [HAN97b]";
  table (fun () -> Eval.Ablations.backup_routing ~seed Eval.Setup.Torus8);

  hr "EXTENSION: R_fast under k simultaneous link failures";
  table (fun () -> Eval.Multi_failure.sweep ~seed Eval.Setup.Torus8);

  hr "SECTION 8: BCP vs reactive re-establishment [BAN93]";
  table (fun () ->
      Eval.Baselines.report Eval.Setup.Torus8
        (Eval.Baselines.compare ~seed ~double_sample Eval.Setup.Torus8));

  hr "SECTION 7.1: sensitivity to traffic and topology + S_max audit";
  table (fun () -> Eval.Sensitivity.traffic ~seed Eval.Setup.Torus8);
  table (fun () -> Eval.Sensitivity.topology ~seed ());
  table (fun () ->
      Eval.Sensitivity.s_max_audit est.Eval.Setup.ns Rcc.Transport.default_params);

  hr "FIGURE 3: Markov reliability models vs combinatorial P_r";
  table (fun () ->
      Eval.Reliability_cmp.report
        (Eval.Reliability_cmp.compute ~hops:[ 1; 2; 4; 7; 10; 14 ]))

(* ------------- Part 2: reduced 4x4 suite (CI bench-smoke) ------------- *)

let part2 () =
  let seed = !seed in
  hr "4x4 FIGURE 9: spare bandwidth vs load, single backup, 4x4 torus";
  table (fun () ->
      Eval.Spare_bw.report Eval.Setup.Torus4 ~backups:1
        (Eval.Spare_bw.run ~seed Eval.Setup.Torus4 ~backups:1));

  hr "4x4 TABLE 1: R_fast, same mux degrees, single backup, 4x4 torus";
  table (fun () ->
      Eval.Rfast.table_same_degree ~seed Eval.Setup.Torus4 ~backups:1);

  hr "4x4 TABLE 2: R_fast, mixed mux degrees, single backup, 4x4 mesh";
  table (fun () ->
      Eval.Rfast.table_mixed_degrees ~seed Eval.Setup.Mesh4 ~backups:1);

  hr "4x4 TABLE 3: R_fast, brute-force multiplexing, 4x4 torus";
  table (fun () -> Eval.Rfast.table_brute_force ~seed Eval.Setup.Torus4);

  hr "4x4 SECTION 5.3: recovery delay vs bound (event-driven BCP)";
  let est = Eval.Setup.build ~seed ~backups:1 ~mux_degree:3 Eval.Setup.Torus4 in
  table (fun () ->
      Eval.Recovery_delay.report
        [ Eval.Recovery_delay.measure ~seed ~scenario_count:8 est.Eval.Setup.ns ]);

  hr "4x4 SECTION 4.2: channel-switching scheme coverage";
  table (fun () -> Eval.Ablations.scheme_coverage ~seed est.Eval.Setup.ns);

  hr "4x4 SECTION 7.1/7.4: hot-spot (inhomogeneous) traffic";
  table (fun () -> Eval.Ablations.inhomogeneous ~seed Eval.Setup.Torus4);

  hr "4x4 FIGURE 8: message loss during failure recovery";
  table (fun () ->
      Eval.Message_loss.report (Eval.Message_loss.run ~seed Eval.Setup.Torus4));

  hr "4x4 EXTENSION: R_fast under k simultaneous link failures";
  table (fun () -> Eval.Multi_failure.sweep ~seed Eval.Setup.Torus4);

  hr "4x4 CHAOS: impairment sweep, oracle detector";
  table (fun () ->
      Eval.Chaos.sweep ~seed ~scenario_count:4 ~detector:`Oracle
        Eval.Setup.Torus4);

  hr "FIGURE 3: Markov reliability models vs combinatorial P_r";
  table (fun () ->
      Eval.Reliability_cmp.report
        (Eval.Reliability_cmp.compute ~hops:[ 1; 2; 4; 7; 10; 14 ]))

(* ------------- Scaling suite: 4x4 -> 8x8 -> 16x16 at fixed load ------- *)

let scaling_tiers =
  [
    ("4x4 torus", Eval.Setup.Torus4);
    ("8x8 torus", Eval.Setup.Torus8);
    ("16x16 torus", Eval.Setup.Torus16);
    ("64x64 torus", Eval.Setup.Torus64);
  ]

let build_tier (label, net) =
  (label, net, Eval.Setup.build_scaled ~seed:!seed ~backups:1 ~mux_degree:3 net)

(* ------------- Routing micro tier: oracle vs reference --------------- *)

(* Establishes a fixed request sample on the loaded scaling netstates and
   tears each request down again with [Netstate.remove_dconn], once with
   the routing acceleration on and once with [~reference:true] —
   identical paths, different work.  Admission-check counts and the
   path-digest comparison are deterministic table cells, gated against
   the committed baseline. *)
let routing_sample = 256

(* Admission checks come from [Sim.Prof], so the tier runs with the
   profiler on; a [--profile] run keeps its data, otherwise
   the profiler is switched off and cleared again afterwards. *)
let with_profiler f =
  if Sim.Prof.enabled () then f ()
  else begin
    Sim.Prof.enable ();
    Fun.protect
      ~finally:(fun () ->
        Sim.Prof.disable ();
        Sim.Prof.reset ())
      f
  end

let admission_checks () =
  Option.value ~default:0
    (List.assoc_opt "establish.admission_checks"
       (Sim.Prof.report ()).Sim.Prof.counters)

let routing_micro runs =
  hr "ROUTING: goal-directed plan search, oracle vs reference";
  let seed = !seed in
  let tiers =
    List.filter
      (fun (label, _, _) -> label = "16x16 torus" || label = "64x64 torus")
      runs
  in
  let measure (label, _net, est) =
    let ns = est.Eval.Setup.ns in
    let topo = Bcp.Netstate.topology ns in
    let rng = Sim.Prng.create (Sim.Prng.derive ~seed ~index:1009) in
    let requests =
      Workload.Generator.random_pairs rng ~backups:1 ~mux_degree:3 topo
        ~count:routing_sample
    in
    (* Paths, not just path lengths: the acceleration must leave every
       chosen link identical. *)
    let digest (conn : Bcp.Dconn.t) =
      ( Net.Path.links conn.Bcp.Dconn.primary.Rtchan.Channel.path,
        List.map
          (fun (b : Bcp.Dconn.backup) ->
            (b.Bcp.Dconn.serial, Net.Path.links b.Bcp.Dconn.path))
          conn.Bcp.Dconn.backups )
    in
    (* Ids far above the established connections' 0 .. n-1, and each
       request is removed before the next, so every request meets the
       loaded state exactly as the scaling run left it. *)
    let run_mode reference =
      let checks0 = admission_checks () in
      let digests =
        List.mapi
          (fun i (r : Workload.Generator.request) ->
            let conn_id = 10_000_000 + i in
            match
              Bcp.Establish.establish ~reference ns ~conn_id
                {
                  Bcp.Establish.src = r.Workload.Generator.src;
                  dst = r.dst;
                  traffic = r.traffic;
                  qos = r.qos;
                  backups = r.backups;
                  mux_degree = r.mux_degree;
                }
            with
            | Ok conn ->
              let d = digest conn in
              Bcp.Netstate.remove_dconn ns conn_id;
              Ok d
            | Error e -> Error e)
          requests
      in
      (digests, admission_checks () - checks0)
    in
    let oracle_digests, oracle_probes = run_mode false in
    let ref_digests, ref_probes = run_mode true in
    (label, oracle_probes, ref_probes, oracle_digests = ref_digests)
  in
  let rows = with_profiler (fun () -> List.map measure tiers) in
  (* Title and columns are the committed baseline's keys: do not reword
     them. *)
  table (fun () ->
      let r =
        Eval.Report.make
          ~title:
            (Printf.sprintf
               "Routing micro: goal-directed plan search (%d dry-run plans, \
                oracle vs reference)"
               routing_sample)
          ~columns:
            [
              "plans";
              "probes (oracle)";
              "probes (reference)";
              "probes saved";
              "paths";
            ]
      in
      List.iter
        (fun (label, op, rp, identical) ->
          Eval.Report.add_row r ~label
            ~cells:
              [
                string_of_int routing_sample;
                string_of_int op;
                string_of_int rp;
                Eval.Report.pct
                  (100.0 *. (1.0 -. (float_of_int op /. float_of_int rp)));
                (if identical then "identical" else "DIVERGED");
              ])
        rows;
      r)

(* Standalone --routing-only entry: builds just the two micro tiers (the
   same seeded establishments the scaling suite builds, so the table
   cells match the committed scaling baseline rows byte for byte). *)
let routing_only_suite () =
  let runs =
    List.map build_tier
      (List.filter
         (fun (label, _) -> label = "16x16 torus" || label = "64x64 torus")
         scaling_tiers)
  in
  routing_micro runs

let scaling () =
  hr "SCALING: establishment at fixed per-node load (8 req/node, mux=3)";
  (* Tiers run serially, and so does establishment inside each tier (see
     [Eval.Setup.establish_all]): each request is routed against the
     state its predecessors left, so --jobs does not change the tables. *)
  let runs = List.map build_tier scaling_tiers in
  table (fun () ->
      let r =
        Eval.Report.make
          ~title:
            "Scaling: establishment at fixed per-node load (8 req/node, 1 \
             backup, mux degree 3)"
          ~columns:
            [ "requests"; "established"; "rejected"; "load"; "spare"; "mux entries" ]
      in
      List.iter
        (fun (label, net, est) ->
          let ns = est.Eval.Setup.ns in
          let mux = Bcp.Netstate.mux ns in
          let topo = Bcp.Netstate.topology ns in
          let entries = ref 0 in
          for l = 0 to Net.Topology.num_links topo - 1 do
            entries := !entries + Bcp.Mux.count_on mux ~link:l
          done;
          let rows, cols = Eval.Setup.dims net in
          Eval.Report.add_row r ~label
            ~cells:
              [
                string_of_int (8 * rows * cols);
                string_of_int est.Eval.Setup.established;
                string_of_int est.Eval.Setup.rejected;
                Eval.Report.pct est.Eval.Setup.load;
                Eval.Report.pct est.Eval.Setup.spare;
                string_of_int !entries;
              ])
        runs;
      r);
  (* The routing micro tier rides on the loaded 16x16/64x64 states the
     scaling run just built, so every gated scaling run also gates the
     search-kernel equivalence cells. *)
  routing_micro runs

(* ------------- Churn suite: steady-state lifecycles (--churn-only) ---- *)

(* Offered-load ladders tuned so the top rung actually blocks: 4 Mbps
   connections push the 4x4 torus (50 Mbps links) into admission rejection
   around 10 E/node, and the 16x16 cell exercises the incremental mux
   hot path at production-shaped table sizes. *)
let churn () =
  let seed = !seed in
  hr "CHURN: offered-load ladder, 4x4 torus (4 Mbps conns, faults every 25 s)";
  let ladder =
    Eval.Churn.run ~seed ~events:6_000 ~offered:[ 4.0; 10.0; 24.0 ]
      ~bandwidth:4.0 ~fault_every:25.0 ~windows:4 Eval.Setup.Torus4
  in
  table (fun () ->
      Eval.Churn.summary_report
        ~title:
          "Churn: 4x4 torus offered-load ladder (6k events/cell, 4 Mbps, \
           faults every 25 s)"
        ladder);
  List.iter
    (fun (o : Eval.Churn.outcome) ->
      table (fun () ->
          Eval.Churn.windows_report
            ~title:
              (Printf.sprintf "Churn windows: 4x4 ladder (offered %.1f E/node)"
                 o.Eval.Churn.offered)
            o))
    ladder;
  hr "CHURN: 16x16 torus steady-state cell (1 Mbps conns, faults every 25 s)";
  let big =
    Eval.Churn.run ~seed ~events:4_000 ~offered:[ 4.0 ] ~bandwidth:1.0
      ~fault_every:25.0 ~windows:4 Eval.Setup.Torus16
  in
  table (fun () ->
      Eval.Churn.summary_report
        ~title:"Churn: 16x16 torus steady-state cell (4k events, 4 E/node)"
        big);
  List.iter
    (fun (o : Eval.Churn.outcome) ->
      table (fun () ->
          Eval.Churn.windows_report
            ~title:
              (Printf.sprintf "Churn windows: 16x16 cell (offered %.1f E/node)"
                 o.Eval.Churn.offered)
            o))
    big

(* ------------- JSON output (schema bcp-bench/v1) ------------- *)

let write_json oc ~suite ~profile =
  let fields =
    [
      ("schema", Eval.Json.String "bcp-bench/v1");
      ("suite", Eval.Json.String suite);
      ("seed", Eval.Json.Int !seed);
      ("jobs", Eval.Json.Int (Sim.Pool.current_jobs ()));
      ("tables", Eval.Json.List (List.rev_map Eval.Report.to_json !collected));
    ]
    @
    match profile with
    | None -> []
    | Some report -> [ ("profile", Eval.Telemetry.prof_to_json report) ]
  in
  Eval.Json.output ~indent:2 oc (Eval.Json.Obj fields);
  output_char oc '\n';
  close_out oc

(* ------------- CLI ------------- *)

let () =
  let part1_only = ref false in
  let part2_only = ref false in
  let scaling_only = ref false in
  let churn_only = ref false in
  let routing_only = ref false in
  let json_path = ref None in
  let profile = ref false in
  let jobs = ref 1 in
  let usage = "bench [--part1-only|--part2-only|--scaling-only|--churn-only|--routing-only] [--jobs N] [--json FILE] [--profile] [--seed N]" in
  let spec =
    [
      ("--part1-only", Arg.Set part1_only, " Run only the full-scale 8x8 suite");
      ("--part2-only", Arg.Set part2_only, " Run only the reduced 4x4 suite");
      ( "--scaling-only",
        Arg.Set scaling_only,
        " Run only the 4x4 -> 8x8 -> 16x16 scaling suite" );
      ( "--churn-only",
        Arg.Set churn_only,
        " Run only the steady-state churn suite" );
      ( "--routing-only",
        Arg.Set routing_only,
        " Run only the routing search micro tier (16x16 + 64x64, oracle vs \
         reference)" );
      ("--jobs", Arg.Set_int jobs, "N Domains for scenario sweeps (default 1)");
      ( "--json",
        Arg.String (fun s -> json_path := Some s),
        "FILE Write machine-readable results (schema bcp-bench/v1)" );
      ( "--profile",
        Arg.Set profile,
        " Profile the engine (Sim.Prof): hot-span table on stderr, \
         bcp-prof/v1 section in the JSON" );
      ("--seed", Arg.Set_int seed, "N PRNG seed (default 42)");
    ]
  in
  let die msg =
    prerr_endline msg;
    Arg.usage spec usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv (Arg.align spec)
         (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
         usage
   with
  | Arg.Bad msg -> die msg
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !jobs < 1 then die (Printf.sprintf "--jobs must be >= 1 (got %d)" !jobs);
  if
    (if !part1_only then 1 else 0)
    + (if !part2_only then 1 else 0)
    + (if !scaling_only then 1 else 0)
    + (if !churn_only then 1 else 0)
    + (if !routing_only then 1 else 0)
    > 1
  then
    die
      "--part1-only, --part2-only, --scaling-only, --churn-only and \
       --routing-only are mutually exclusive";
  (* Opened before the run, so an unwritable path fails in seconds rather
     than after the whole suite. *)
  let json_out =
    Option.map
      (fun path ->
        (path, Eval.Json.or_cannot_write ~prog:"bench" path (fun () -> open_out path)))
      !json_path
  in
  Sim.Pool.set_jobs !jobs;
  if !profile then Sim.Prof.enable ();
  if not (!part2_only || !scaling_only || !churn_only || !routing_only) then
    part1 ();
  if not (!part1_only || !scaling_only || !churn_only || !routing_only) then
    part2 ();
  (* The scaling and churn tiers run in the full suite and under their
     --*-only flags; the part-1/part-2 selections stay exactly the
     historical suites.  The routing micro tier rides inside the scaling
     suite (sharing its loaded netstates) and under --routing-only builds
     just its own two tiers. *)
  if !scaling_only || not (!part1_only || !part2_only || !churn_only || !routing_only)
  then scaling ();
  if !routing_only then routing_only_suite ();
  if !churn_only || not (!part1_only || !part2_only || !scaling_only || !routing_only)
  then churn ();
  (* The hot-span table goes to stderr so profiling leaves stdout (and
     the CI identity diffs over it) untouched. *)
  let profile =
    if !profile then begin
      let r = Sim.Prof.report () in
      Sim.Prof.print_top Format.err_formatter;
      Some r
    end
    else None
  in
  Option.iter
    (fun (path, oc) ->
      let suite =
        if !part1_only then "part1"
        else if !part2_only then "part2"
        else if !scaling_only then "scaling"
        else if !churn_only then "churn"
        else if !routing_only then "routing"
        else "full"
      in
      Eval.Json.or_cannot_write ~prog:"bench" path (fun () ->
          write_json oc ~suite ~profile))
    json_out
