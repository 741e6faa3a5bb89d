(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper at full scale
   (8x8 torus / mesh, 4032 connections) and prints them in the paper's
   layout — this is the reproduction harness proper.

   Part 2 runs the same experiments on reduced (4x4) instances — a
   minutes-to-seconds-scale suite used by CI's bench-smoke job.  With
   [--micro] it additionally runs Bechamel micro-benchmarks on the core
   data-structure kernels.

   Flags:
     --part1-only / --part2-only   select a part (default: both)
     --jobs N                      domain count for scenario sweeps
     --json FILE                   machine-readable results (bcp-bench/v1)
     --omit-timings                drop wall-clock fields from the JSON
                                   (used to commit stable baselines)
     --micro                       run the Bechamel micro-benchmarks
     --seed N                      PRNG seed (default 42) *)

let seed = ref 42
let double_sample = 300 (* of 2016 double-node pairs; keeps the run minutes-scale *)

(* Every table produced during the run, with its wall-clock cost, in
   emission order. *)
let collected : (Eval.Report.t * float) list ref = ref []

(* Bechamel kernel timings (name, ns/run), when [--micro] ran. *)
let kernel_timings : (string * float) list ref = ref []

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Time the construction of a report, print it, and record it for the
   JSON sink.  The timing never influences the table contents, so the
   rendered output stays byte-identical across job counts. *)
let table mk =
  let t0 = Unix.gettimeofday () in
  let report = mk () in
  let dt = Unix.gettimeofday () -. t0 in
  collected := (report, dt) :: !collected;
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
        (Eval.Reliability_cmp.compute ~hops:[ 1; 2; 4; 7; 10; 14 ] ()))

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
        (Eval.Reliability_cmp.compute ~hops:[ 1; 2; 4; 7; 10; 14 ] ()))

(* ------------- Scaling suite: 4x4 -> 8x8 -> 16x16 at fixed load ------- *)

(* Wall-clock ns/op of a thunk, growing the repetition count until the
   sample is long enough to trust.  Used for the per-tier mux kernels —
   Bechamel stays the harness for the --micro suite, but here one
   gettimeofday loop per (tier, kernel) keeps the scaling run cheap. *)
let time_ns_per_op f =
  (* Timing loops are synthetic: their repetition counts adapt to machine
     speed, so letting them hit [Sim.Prof] counters (mux.register from
     the register+unregister kernel, mux.probe from required_with) would
     make profiled counter totals vary run to run and break the CI
     invariant that workload counters are identical across job counts.
     Suspend the profiler for the duration; only real workload counts. *)
  let profiled = Sim.Prof.enabled () in
  if profiled then Sim.Prof.disable ();
  Fun.protect ~finally:(fun () -> if profiled then Sim.Prof.enable ()) @@ fun () ->
  f ();
  (* warm-up *)
  let rec run reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.05 && reps < 1_000_000 then run (reps * 4)
    else dt *. 1e9 /. float_of_int reps
  in
  run 16

let scaling_tiers =
  [
    ("4x4 torus", Eval.Setup.Torus4);
    ("8x8 torus", Eval.Setup.Torus8);
    ("16x16 torus", Eval.Setup.Torus16);
    ("64x64 torus", Eval.Setup.Torus64);
  ]

(* The link carrying the most backups, and a synthetic candidate whose
   primary is the first registered backup's — the worst-case admission
   probe for this loaded network. *)
let busiest_link_candidate ns =
  let mux = Bcp.Netstate.mux ns in
  let topo = Bcp.Netstate.topology ns in
  let busiest = ref 0 in
  for l = 1 to Net.Topology.num_links topo - 1 do
    if Bcp.Mux.count_on mux ~link:l > Bcp.Mux.count_on mux ~link:!busiest then
      busiest := l
  done;
  match Bcp.Mux.on_link mux ~link:!busiest with
  | [] -> None
  | i0 :: _ ->
    Some (!busiest, { i0 with Bcp.Mux.backup = max_int / 2; conn = max_int / 2 })

let build_tier (label, net) =
  let t0 = Unix.gettimeofday () in
  let est = Eval.Setup.build_scaled ~seed:!seed ~backups:1 ~mux_degree:3 net in
  let dt = Unix.gettimeofday () -. t0 in
  (label, net, est, dt)

(* ------------- Routing micro tier: oracle vs reference --------------- *)

(* Establishes a fixed request sample on the loaded scaling netstates and
   tears each request down again with [Netstate.remove_dconn], once with
   the routing acceleration on and once under [set_oracle_disabled] —
   identical paths, different work.  Admission-check counts and the
   path-digest comparison are deterministic (table cells, gated against
   the committed baseline); the wall clocks go through "timing:" lines and
   kernel_timings only, so the table stays byte-identical across machines
   and job counts. *)
let routing_sample = 256

(* Admission checks and search times come from [Sim.Prof], so the tier
   runs with the profiler on; a [--profile] run keeps its data, otherwise
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

(* Admission checks so far, and seconds spent in the primary and backup
   searches: registration and teardown are left out of the timing, so the
   oracle-vs-reference speedup stays a routing figure. *)
let routing_work () =
  let r = Sim.Prof.report () in
  let search_ns =
    List.fold_left
      (fun acc (s : Sim.Prof.span_stat) ->
        if s.name = "establish.primary" || s.name = "establish.backup_route"
        then acc +. s.total_ns
        else acc)
      0.0 r.spans
  in
  ( Option.value ~default:0
      (List.assoc_opt "establish.admission_checks" r.counters),
    search_ns /. 1e9 )

let routing_micro runs =
  hr "ROUTING: goal-directed plan search, oracle vs reference";
  let seed = !seed in
  let tiers =
    List.filter
      (fun (label, _, _, _) -> label = "16x16 torus" || label = "64x64 torus")
      runs
  in
  let measure (label, _net, est, _dt) =
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
    let run_mode disabled =
      Routing.Shortest.set_oracle_disabled disabled;
      let checks0, search0 = routing_work () in
      let digests =
        List.mapi
          (fun i (r : Workload.Generator.request) ->
            let conn_id = 10_000_000 + i in
            match
              Bcp.Establish.establish ns ~conn_id
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
      let checks1, search1 = routing_work () in
      (digests, checks1 - checks0, search1 -. search0)
    in
    let oracle_digests, oracle_probes, oracle_dt = run_mode false in
    let ref_digests, ref_probes, ref_dt = run_mode true in
    Routing.Shortest.set_oracle_disabled false;
    ( label,
      oracle_probes,
      ref_probes,
      oracle_digests = ref_digests,
      oracle_dt,
      ref_dt )
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
        (fun (label, op, rp, identical, _, _) ->
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
      r);
  List.iter
    (fun (label, _, _, _, odt, rdt) ->
      Printf.printf
        "timing: routing %-12s oracle %8.1f ms (%6.0f us/plan), reference \
         %8.1f ms, speedup %.1fx\n"
        label (odt *. 1e3)
        (odt *. 1e6 /. float_of_int routing_sample)
        (rdt *. 1e3) (rdt /. odt);
      kernel_timings :=
        ( Printf.sprintf "routing plan oracle %s (ns/plan)" label,
          odt *. 1e9 /. float_of_int routing_sample )
        :: ( Printf.sprintf "routing plan reference %s (ns/plan)" label,
             rdt *. 1e9 /. float_of_int routing_sample )
        :: !kernel_timings)
    rows

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
        (fun (label, net, est, _) ->
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
  (* Wall-clock lines are prefixed "timing:" so CI's serial/parallel
     byte-identity diff can filter them; the values also land in the JSON
     "timings" section (dropped with --omit-timings). *)
  List.iter
    (fun (label, _, est, dt) ->
      let attempts =
        est.Eval.Setup.established + est.Eval.Setup.rejected
      in
      let throughput = float_of_int attempts /. dt in
      Printf.printf "timing: %-12s establishment %6.2f s  (%7.0f conns/s)\n"
        label dt throughput;
      kernel_timings :=
        ( Printf.sprintf "scaling establish %s (ns/conn)" label,
          dt *. 1e9 /. float_of_int attempts )
        :: !kernel_timings;
      let ns = est.Eval.Setup.ns in
      match busiest_link_candidate ns with
      | None -> ()
      | Some (link, candidate) ->
        let mux = Bcp.Netstate.mux ns in
        let on = Bcp.Mux.count_on mux ~link in
        let rw_ns =
          time_ns_per_op (fun () ->
              ignore (Bcp.Mux.required_with mux ~link candidate))
        in
        let reg_ns =
          time_ns_per_op (fun () ->
              Bcp.Mux.register mux ~link candidate;
              Bcp.Mux.unregister mux ~link ~backup:candidate.Bcp.Mux.backup)
        in
        Printf.printf
          "timing: %-12s mux kernels on busiest link (%d backups): \
           required_with %8.0f ns/op, register+unregister %8.0f ns/op\n"
          label on rw_ns reg_ns;
        kernel_timings :=
          (Printf.sprintf "scaling mux required_with %s (ns/op)" label, rw_ns)
          :: (Printf.sprintf "scaling mux register+unregister %s (ns/op)" label,
              reg_ns)
          :: !kernel_timings)
    runs;
  (* The routing micro tier rides on the loaded 16x16/64x64 states the
     scaling run just built, so every gated scaling run also gates the
     search-kernel equivalence cells. *)
  routing_micro runs

(* ------------- Churn suite: steady-state lifecycles (--churn-only) ---- *)

(* Offered-load ladders tuned so the top rung actually blocks: 4 Mbps
   connections push the 4x4 torus (50 Mbps links) into admission rejection
   around 10 E/node, and the 16x16 cell exercises the incremental mux
   hot path at production-shaped table sizes.  Outcomes are computed
   before the tables so the recorded walls time only rendering; the
   lifecycle throughput goes through the "timing:" lines and the JSON
   timings section instead. *)
let churn () =
  let seed = !seed in
  let run_tier ~label ~events ~offered ~bandwidth ~fault_every ~net =
    let t0 = Unix.gettimeofday () in
    let outcomes =
      Eval.Churn.run ~seed ~events ~offered ~bandwidth ~fault_every ~windows:4
        net
    in
    let dt = Unix.gettimeofday () -. t0 in
    let total_events =
      List.fold_left
        (fun a (o : Eval.Churn.outcome) -> a + o.Eval.Churn.events)
        0 outcomes
    in
    Printf.printf "timing: churn %-12s %6.2f s  (%d lifecycle events, %7.0f events/s)\n"
      label dt total_events
      (float_of_int total_events /. dt);
    kernel_timings :=
      ( Printf.sprintf "churn %s (ns/event)" label,
        dt *. 1e9 /. float_of_int total_events )
      :: !kernel_timings;
    outcomes
  in
  hr "CHURN: offered-load ladder, 4x4 torus (4 Mbps conns, faults every 25 s)";
  let ladder =
    run_tier ~label:"4x4 ladder" ~events:6_000 ~offered:[ 4.0; 10.0; 24.0 ]
      ~bandwidth:4.0 ~fault_every:25.0 ~net:Eval.Setup.Torus4
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
    run_tier ~label:"16x16 cell" ~events:4_000 ~offered:[ 4.0 ] ~bandwidth:1.0
      ~fault_every:25.0 ~net:Eval.Setup.Torus16
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

(* ------------- Bechamel micro-benchmarks (--micro) ------------- *)

open Bechamel
open Toolkit

let small_net () = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0

let establish_small backups mux_degree =
  let topo = small_net () in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create !seed in
  let requests =
    Workload.Generator.shuffled rng
      (Workload.Generator.all_pairs ~backups ~mux_degree topo)
  in
  ignore (Eval.Setup.establish_all ns requests);
  ns

let bench_fig9_kernel () =
  Test.make ~name:"fig9-kernel (4x4 torus establishment, mux=3)"
    (Staged.stage (fun () -> ignore (establish_small 1 3)))

let bench_table1_kernel () =
  let ns = establish_small 1 3 in
  let topo = Bcp.Netstate.topology ns in
  let scenarios = Failures.Scenario.all_single_links topo in
  Test.make ~name:"table1-kernel (single-link R_fast sweep)"
    (Staged.stage (fun () ->
         List.iter
           (fun (sc : Failures.Scenario.t) ->
             ignore
               (Bcp.Recovery.simulate ns ~failed:sc.Failures.Scenario.components))
           scenarios))

let bench_table2_kernel () =
  let topo = small_net () in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create !seed in
  let requests =
    Workload.Generator.with_mux_mix ~degrees:[ 1; 3; 5; 6 ]
      (Workload.Generator.shuffled rng (Workload.Generator.all_pairs topo))
  in
  ignore (Eval.Setup.establish_all ns requests);
  let scenarios = Failures.Scenario.all_single_nodes topo in
  Test.make ~name:"table2-kernel (mixed-degree single-node R_fast)"
    (Staged.stage (fun () ->
         List.iter
           (fun (sc : Failures.Scenario.t) ->
             ignore
               (Bcp.Recovery.simulate ns ~failed:sc.Failures.Scenario.components))
           scenarios))

let bench_table3_kernel () =
  let topo = small_net () in
  let ns = Bcp.Netstate.create ~policy:(Bcp.Netstate.Brute_force 5.0) topo () in
  let rng = Sim.Prng.create !seed in
  ignore
    (Eval.Setup.establish_all ns
       (Workload.Generator.shuffled rng (Workload.Generator.all_pairs topo)));
  let scenarios = Failures.Scenario.all_single_links topo in
  Test.make ~name:"table3-kernel (brute-force R_fast sweep)"
    (Staged.stage (fun () ->
         List.iter
           (fun (sc : Failures.Scenario.t) ->
             ignore
               (Bcp.Recovery.simulate ns ~failed:sc.Failures.Scenario.components))
           scenarios))

let bench_delay_kernel () =
  let ns = establish_small 1 3 in
  Test.make ~name:"delay-kernel (event-driven recovery, 1 link)"
    (Staged.stage (fun () ->
         let sim = Bcp.Simnet.create ns in
         Bcp.Simnet.fail_link sim ~at:0.01 0;
         Bcp.Simnet.run ~until:0.1 sim;
         Bcp.Simnet.finalize sim))

let bench_markov_kernel () =
  Test.make ~name:"markov-kernel (Fig 3 R(t) + MTTF)"
    (Staged.stage (fun () ->
         ignore (Eval.Reliability_cmp.compute ~hops:[ 1; 4; 10 ] ())))

(* Synthetic backup population for the mux kernels: 9-component primaries
   drawn from a 400-slot encoded universe, so candidates overlap a
   realistic fraction of the table. *)
let mux_kernel_info i =
  let comps =
    Array.init 9 (fun k -> (2 * ((i + (k * 7)) mod 200)) + (k land 1))
  in
  let comps =
    Array.of_list (List.sort_uniq Int.compare (Array.to_list comps))
  in
  {
    Bcp.Mux.backup = i;
    conn = i;
    serial = 1;
    nu = 3e-4;
    bw = 1.0;
    primary_components = comps;
  }

let loaded_mux () =
  let mux = Bcp.Mux.create (small_net ()) ~lambda:1e-4 in
  for i = 0 to 199 do
    Bcp.Mux.register mux ~link:0 (mux_kernel_info i)
  done;
  mux

let bench_mux_required_with () =
  let mux = loaded_mux () in
  let candidate = mux_kernel_info 9999 in
  Test.make ~name:"mux required_with (200 backups on link)"
    (Staged.stage (fun () ->
         ignore (Bcp.Mux.required_with mux ~link:0 candidate)))

let bench_mux_register () =
  let mux = loaded_mux () in
  let candidate = mux_kernel_info 9999 in
  Test.make ~name:"mux register+unregister (200 backups on link)"
    (Staged.stage (fun () ->
         Bcp.Mux.register mux ~link:0 candidate;
         Bcp.Mux.unregister mux ~link:0 ~backup:9999))

(* 33 components ≈ a 16-hop primary: the shared_count kernels compare the
   sorted-array merge with the bitset AND+popcount on identical inputs. *)
let shared_kernel_arrays () =
  let mk off =
    Array.init 33 (fun k -> off + (2 * k * 3))
  in
  (mk 0, mk 24)

(* 32 counts per run: the single-op cost (~50-300 ns) sits below the
   harness measurement floor, so batching is what makes the merge/bitset
   gap visible in the ns/run estimates. *)
let bench_shared_count_sorted () =
  let a, b = shared_kernel_arrays () in
  Test.make ~name:"shared_count sorted-array merge (33 comps, x32)"
    (Staged.stage (fun () ->
         for _ = 1 to 32 do
           ignore (Bcp.Mux.shared_count a b)
         done))

let bench_shared_count_bitset () =
  let a, b = shared_kernel_arrays () in
  let ba = Option.get (Bcp.Mux.bitset_of_components a) in
  let bb = Option.get (Bcp.Mux.bitset_of_components b) in
  Test.make ~name:"shared_count bitset popcount (33 comps, x32)"
    (Staged.stage (fun () ->
         for _ = 1 to 32 do
           ignore (Bcp.Mux.shared_count_bitset ba bb)
         done))

let bench_dijkstra () =
  let topo = Net.Builders.torus ~rows:8 ~cols:8 ~capacity:200.0 in
  Test.make ~name:"shortest-path (8x8 torus, corner to corner)"
    (Staged.stage (fun () ->
         ignore (Routing.Shortest.shortest_path topo ~src:0 ~dst:63)))

let bench_engine () =
  Test.make ~name:"event engine (10k timers)"
    (Staged.stage (fun () ->
         let e = Sim.Engine.create () in
         for i = 1 to 10_000 do
           ignore (Sim.Engine.schedule e ~at:(float_of_int i) (fun () -> ()))
         done;
         Sim.Engine.run e))

let benchmarks () =
  [
    bench_fig9_kernel ();
    bench_table1_kernel ();
    bench_table2_kernel ();
    bench_table3_kernel ();
    bench_delay_kernel ();
    bench_markov_kernel ();
    bench_mux_required_with ();
    bench_mux_register ();
    bench_shared_count_sorted ();
    bench_shared_count_bitset ();
    bench_dijkstra ();
    bench_engine ();
  ]

let run_bechamel () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let instances = Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            kernel_timings := (name, est) :: !kernel_timings;
            Printf.printf "  %-55s %14.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-55s (no estimate)\n%!" name)
        results)
    (benchmarks ())

(* ------------- JSON output (schema bcp-bench/v1) ------------- *)

let write_json ~path ~suite ~omit_timings ~total_wall ~profile =
  let tables =
    List.rev_map
      (fun (report, wall) ->
        match Eval.Report.to_json report with
        | Eval.Json.Obj fields when not omit_timings ->
          Eval.Json.Obj (fields @ [ ("wall_s", Eval.Json.Float wall) ])
        | j -> j)
      !collected
  in
  let base =
    [
      ("schema", Eval.Json.String "bcp-bench/v1");
      ("suite", Eval.Json.String suite);
      ("seed", Eval.Json.Int !seed);
      ("jobs", Eval.Json.Int (Sim.Pool.current_jobs ()));
      ("tables", Eval.Json.List tables);
    ]
  in
  let timed =
    if omit_timings then base
    else
      base
      @ [
          ( "timings",
            Eval.Json.List
              (List.rev_map
                 (fun (name, ns) ->
                   Eval.Json.Obj
                     [
                       ("name", Eval.Json.String name);
                       ("ns_per_run", Eval.Json.Float ns);
                     ])
                 !kernel_timings) );
          ("total_wall_s", Eval.Json.Float total_wall);
        ]
  in
  let timed =
    match profile with
    | None -> timed
    | Some report ->
      timed @ [ ("profile", Eval.Telemetry.prof_to_json report) ]
  in
  let oc = open_out path in
  output_string oc (Eval.Json.to_string ~indent:2 (Eval.Json.Obj timed));
  output_char oc '\n';
  close_out oc

(* ------------- CLI ------------- *)

let () =
  let part1_only = ref false in
  let part2_only = ref false in
  let scaling_only = ref false in
  let churn_only = ref false in
  let routing_only = ref false in
  let micro = ref false in
  let json_path = ref None in
  let omit_timings = ref false in
  let profile = ref false in
  let jobs = ref 1 in
  let usage = "bench [--part1-only|--part2-only|--scaling-only|--churn-only|--routing-only] [--jobs N] [--json FILE] [--omit-timings] [--profile] [--micro] [--seed N]" in
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
      ( "--omit-timings",
        Arg.Set omit_timings,
        " Omit wall-clock fields from the JSON (stable baselines)" );
      ( "--profile",
        Arg.Set profile,
        " Profile the engine (Sim.Prof): hot-span table on stderr, \
         bcp-prof/v1 section in the JSON" );
      ("--micro", Arg.Set micro, " Run the Bechamel micro-benchmarks");
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
  Sim.Pool.set_jobs !jobs;
  if !profile then Sim.Prof.enable ();
  let t0 = Unix.gettimeofday () in
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
  if !micro then begin
    hr "MICRO-BENCHMARKS (Bechamel, reduced-scale kernels)";
    run_bechamel ()
  end;
  let total_wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal wall time: %.1f s\n" total_wall;
  (* The hot-span table goes to stderr so profiling leaves stdout (and
     the CI identity diffs over it) untouched. *)
  let prof_report =
    if !profile then begin
      let r = Sim.Prof.report () in
      Sim.Prof.print_top Format.err_formatter;
      Some r
    end
    else None
  in
  (match !json_path with
  | None -> ()
  | Some path ->
    let suite =
      if !part1_only then "part1"
      else if !part2_only then "part2"
      else if !scaling_only then "scaling"
      else if !churn_only then "churn"
      else if !routing_only then "routing"
      else "full"
    in
    write_json ~path ~suite ~omit_timings:!omit_timings ~total_wall
      ~profile:prof_report)
