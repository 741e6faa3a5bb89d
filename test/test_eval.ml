(* Tests for the evaluation harness: report rendering, experiment setup,
   and reduced-scale versions of the paper's experiments (the full-scale
   runs live in bench/main.ml). *)

let test_report_rendering () =
  let r = Eval.Report.make ~title:"T" ~columns:[ "a"; "b" ] in
  Eval.Report.add_row r ~label:"row1" ~cells:[ "1"; "2" ];
  Eval.Report.add_float_row r ~label:"row2" [ 3.0; 4.5 ];
  let s = Eval.Report.render r in
  let contains needle =
    let rec scan i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "title" true (contains "T");
  Alcotest.(check bool) "row" true (contains "row1");
  Alcotest.(check bool) "float cell" true (contains "4.50");
  Alcotest.(check bool) "column" true (contains "b")

let test_report_csv () =
  let r = Eval.Report.make ~title:"T" ~columns:[ "a"; "b" ] in
  Eval.Report.add_row r ~label:"x,y" ~cells:[ "1"; "he said \"hi\"" ];
  let csv = Eval.Report.to_csv r in
  Alcotest.(check bool) "escaped comma" true
    (String.length csv > 0 && csv.[String.length csv - 1] = '\n');
  Alcotest.(check bool) "quote doubling" true
    (let rec scan i =
       i + 4 <= String.length csv
       && (String.sub csv i 4 = "\"\"hi" || scan (i + 1))
     in
     scan 0)

let test_report_validation () =
  let r = Eval.Report.make ~title:"T" ~columns:[ "a" ] in
  Alcotest.(check bool) "cell mismatch" true
    (try Eval.Report.add_row r ~label:"x" ~cells:[ "1"; "2" ]; false
     with Invalid_argument _ -> true)

let test_setup_topologies () =
  let torus = Eval.Setup.topology_of Eval.Setup.Torus8 in
  Alcotest.(check int) "torus links" 256 (Net.Topology.num_links torus);
  Alcotest.(check (float 1e-6)) "torus capacity" 51_200.0
    (Net.Topology.total_capacity torus);
  let mesh = Eval.Setup.topology_of Eval.Setup.Mesh8 in
  Alcotest.(check int) "mesh links" 224 (Net.Topology.num_links mesh);
  Alcotest.(check (float 1e-6)) "mesh capacity" 67_200.0
    (Net.Topology.total_capacity mesh)

let test_establish_all_small () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create 42 in
  let requests =
    Workload.Generator.shuffled rng
      (Workload.Generator.all_pairs ~mux_degree:3 topo)
  in
  let progress = ref 0 in
  let est =
    Eval.Setup.establish_all ~progress_every:50
      ~on_progress:(fun ~established:_ ~load:_ ~spare:_ -> incr progress)
      ns requests
  in
  Alcotest.(check int) "all established" 240 est.Eval.Setup.established;
  Alcotest.(check int) "none rejected" 0 est.Eval.Setup.rejected;
  Alcotest.(check bool) "progress callbacks fired" true (!progress > 0);
  Alcotest.(check bool) "load positive" true (est.Eval.Setup.load > 0.0);
  Alcotest.(check bool) "spare positive" true (est.Eval.Setup.spare > 0.0)

let test_rfast_measure_small () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create 42 in
  ignore
    (Eval.Setup.establish_all ns
       (Workload.Generator.shuffled rng
          (Workload.Generator.all_pairs ~mux_degree:1 topo)));
  let m = Eval.Rfast.measure ns Eval.Rfast.Single_link in
  Alcotest.(check int) "one scenario per link" 64 m.Eval.Rfast.scenarios;
  (* mux=1 on a lightly loaded torus: guaranteed single-failure recovery. *)
  Alcotest.(check (float 1e-9)) "R_fast 100" 100.0 (Eval.Rfast.r_fast m);
  Alcotest.(check bool) "affected counted" true (m.Eval.Rfast.affected > 0)

let test_rfast_degree_accessor () =
  let m =
    {
      Eval.Rfast.label = "x";
      scenarios = 1;
      affected = 10;
      recovered = 5;
      mux_failures = 5;
      no_backup = 0;
      excluded = 0;
      per_degree = [ (1, (4, 4)); (6, (6, 1)) ];
    }
  in
  Alcotest.(check (float 1e-9)) "overall" 50.0 (Eval.Rfast.r_fast m);
  Alcotest.(check (float 1e-9)) "degree 1" 100.0 (Eval.Rfast.r_fast_deg m 1);
  Alcotest.(check (float 1e-6)) "degree 6" (100.0 /. 6.0)
    (Eval.Rfast.r_fast_deg m 6);
  Alcotest.(check (float 1e-9)) "absent degree vacuous" 100.0
    (Eval.Rfast.r_fast_deg m 3)

let test_reliability_rows () =
  let rows = Eval.Reliability_cmp.compute ~hops:[ 1; 4 ] in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun (row : Eval.Reliability_cmp.row) ->
      Alcotest.(check int) "components" ((2 * row.Eval.Reliability_cmp.hops) + 1)
        row.Eval.Reliability_cmp.components;
      Alcotest.(check bool) "markov >= combinatorial (repair helps)" true
        (row.Eval.Reliability_cmp.r_markov_3b
        >= row.Eval.Reliability_cmp.pr_combinatorial -. 1e-12);
      Alcotest.(check bool) "3a = 3b for disjoint equal-length" true
        (Float.abs
           (row.Eval.Reliability_cmp.r_markov_3a
           -. row.Eval.Reliability_cmp.r_markov_3b)
        < 1e-9);
      Alcotest.(check bool) "mttf positive" true
        (row.Eval.Reliability_cmp.mttf_hours > 0.0))
    rows;
  (* Longer channels are less reliable. *)
  (match rows with
  | [ a; b ] ->
    Alcotest.(check bool) "monotone" true
      (a.Eval.Reliability_cmp.r_markov_3b > b.Eval.Reliability_cmp.r_markov_3b)
  | _ -> ())

let test_recovery_delay_small () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create 42 in
  ignore
    (Eval.Setup.establish_all ns
       (Workload.Generator.shuffled rng
          (Workload.Generator.all_pairs ~mux_degree:3 topo)));
  let stats =
    Eval.Recovery_delay.measure ~scenario_count:4 ~node_failures:false ns
  in
  Alcotest.(check bool) "samples collected" true (stats.Eval.Recovery_delay.samples > 0);
  Alcotest.(check bool) "mean positive" true (stats.Eval.Recovery_delay.mean >= 0.0);
  Alcotest.(check (float 1e-9)) "all within bound" 100.0
    stats.Eval.Recovery_delay.within_bound_pct;
  Alcotest.(check bool) "p99 >= p50" true
    (stats.Eval.Recovery_delay.p99 >= stats.Eval.Recovery_delay.p50)

let test_spare_bw_series () =
  (* Tiny spare-bandwidth sweep on a 4x4 torus. *)
  let saved = [ 0; 1; 6 ] in
  ignore saved;
  let series =
    (* reuse the full harness against the small network via the generic
       pieces: emulate by calling Spare_bw.run on Torus8 would be slow, so
       test run shape on the small net through Setup.establish_all above.
       Here we only exercise the reporting path. *)
    [
      { Eval.Spare_bw.degree = 0; rejected = 0; points = [ (10.0, 12.0); (20.0, 24.0) ] };
      { Eval.Spare_bw.degree = 6; rejected = 1; points = [ (10.0, 4.0) ] };
    ]
  in
  let report = Eval.Spare_bw.report Eval.Setup.Torus8 ~backups:1 series in
  let s = Eval.Report.render report in
  let contains needle =
    let rec scan i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "degree column" true (contains "mux=0");
  Alcotest.(check bool) "rejection marked" true (contains "rej 1");
  Alcotest.(check bool) "missing point dash" true (contains "-")

let () =
  Alcotest.run "eval"
    [
      ( "report",
        [
          Alcotest.test_case "render" `Quick test_report_rendering;
          Alcotest.test_case "csv" `Quick test_report_csv;
          Alcotest.test_case "validation" `Quick test_report_validation;
        ] );
      ( "setup",
        [
          Alcotest.test_case "topologies" `Quick test_setup_topologies;
          Alcotest.test_case "establish small" `Quick test_establish_all_small;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "rfast small" `Quick test_rfast_measure_small;
          Alcotest.test_case "rfast accessors" `Quick test_rfast_degree_accessor;
          Alcotest.test_case "reliability rows" `Quick test_reliability_rows;
          Alcotest.test_case "recovery delay small" `Quick test_recovery_delay_small;
          Alcotest.test_case "spare-bw report" `Quick test_spare_bw_series;
        ] );
    ]
