(* Tests for failure scenarios and stochastic failure/repair processes. *)

let torus44 () = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0

let test_single_scenarios () =
  let t = torus44 () in
  let links = Failures.Scenario.all_single_links t in
  Alcotest.(check int) "one per link" (Net.Topology.num_links t) (List.length links);
  let nodes = Failures.Scenario.all_single_nodes t in
  Alcotest.(check int) "one per node" 16 (List.length nodes);
  (match (List.hd links).Failures.Scenario.components with
  | [ Net.Component.Link 0 ] -> ()
  | _ -> Alcotest.fail "first link scenario malformed")

let test_double_nodes () =
  let t = torus44 () in
  let all = Failures.Scenario.all_double_nodes t in
  Alcotest.(check int) "n choose 2" 120 (List.length all);
  (* Each scenario has two distinct node components. *)
  List.iter
    (fun sc ->
      match sc.Failures.Scenario.components with
      | [ Net.Component.Node a; Net.Component.Node b ] ->
        Alcotest.(check bool) "distinct" true (a <> b)
      | _ -> Alcotest.fail "malformed double-node scenario")
    all

(* A negative count raises instead of drawing forever; 0 draws nothing. *)
let test_sampled_double_nodes_count () =
  let t = torus44 () in
  let rng = Sim.Prng.create 3 in
  Alcotest.(check int) "count 0" 0
    (List.length (Failures.Scenario.sampled_double_nodes rng t ~count:0));
  Alcotest.check_raises "count -3"
    (Invalid_argument "Scenario.sampled_double_nodes: count < 0") (fun () ->
      ignore (Failures.Scenario.sampled_double_nodes rng t ~count:(-3)))

let test_sampled_double_nodes () =
  let t = torus44 () in
  let rng = Sim.Prng.create 3 in
  let sample = Failures.Scenario.sampled_double_nodes rng t ~count:30 in
  Alcotest.(check int) "count" 30 (List.length sample);
  let keys =
    List.map
      (fun sc ->
        match sc.Failures.Scenario.components with
        | [ Net.Component.Node a; Net.Component.Node b ] -> (min a b, max a b)
        | _ -> Alcotest.fail "malformed")
      sample
  in
  Alcotest.(check int) "distinct pairs" 30
    (List.length (List.sort_uniq compare keys))

let test_effective_components () =
  let t = torus44 () in
  let sc = Failures.Scenario.single_node t 0 in
  let eff = Failures.Scenario.effective_components t sc in
  (* node + its 4 out-links + 4 in-links *)
  Alcotest.(check int) "node plus incident links" 9 (List.length eff);
  let sc2 = Failures.Scenario.single_link t 0 in
  Alcotest.(check int) "link alone" 1
    (List.length (Failures.Scenario.effective_components t sc2))

let test_random_links () =
  let t = torus44 () in
  let rng = Sim.Prng.create 5 in
  let sc = Failures.Scenario.random_links rng t ~count:5 in
  Alcotest.(check int) "five links" 5 (List.length sc.Failures.Scenario.components);
  Alcotest.(check bool) "too many rejected" true
    (try ignore (Failures.Scenario.random_links rng t ~count:10_000); false
     with Invalid_argument _ -> true)

let test_validation () =
  let t = torus44 () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad node" true
    (raises (fun () -> ignore (Failures.Scenario.single_node t 99)));
  Alcotest.(check bool) "identical pair" true
    (raises (fun () -> ignore (Failures.Scenario.double_node t 3 3)))

(* ---------- processes ---------- *)

let test_failures_only_sorted_and_unique_per_component () =
  let t = torus44 () in
  let rng = Sim.Prng.create 7 in
  let evs = Failures.Process.failures_only rng t ~horizon:10_000.0 ~mtbf:5_000.0 in
  let times = List.map (fun e -> e.Failures.Process.time) evs in
  Alcotest.(check bool) "sorted" true (times = List.sort Float.compare times);
  (* Crash-only: at most one failure per component. *)
  let comps = List.map (fun e -> e.Failures.Process.component) evs in
  Alcotest.(check int) "unique components"
    (List.length (List.sort_uniq Net.Component.compare comps))
    (List.length comps);
  List.iter
    (fun e ->
      Alcotest.(check bool) "kind" true (e.Failures.Process.kind = `Fail);
      Alcotest.(check bool) "within horizon" true
        (e.Failures.Process.time <= 10_000.0))
    evs

let test_generate_alternates () =
  let t = Net.Builders.line ~nodes:2 ~capacity:1.0 in
  let rng = Sim.Prng.create 11 in
  let evs = Failures.Process.generate rng t ~horizon:100_000.0 ~mtbf:100.0 ~mttr:10.0 in
  (* Per component, events must alternate fail/repair starting with fail. *)
  let by_comp = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt by_comp e.Failures.Process.component)
      in
      Hashtbl.replace by_comp e.Failures.Process.component (e :: cur))
    evs;
  Hashtbl.iter
    (fun _ evs ->
      let evs = List.rev evs in
      List.iteri
        (fun i e ->
          let expected = if i mod 2 = 0 then `Fail else `Repair in
          Alcotest.(check bool) "alternates" true (e.Failures.Process.kind = expected))
        evs)
    by_comp;
  Alcotest.(check bool) "many events over long horizon" true (List.length evs > 100)

let test_mean_time_between_failures () =
  let t = Net.Builders.line ~nodes:2 ~capacity:1.0 in
  let rng = Sim.Prng.create 13 in
  (* 4 components (2 nodes + 2 links) with mtbf 50 over horizon 50_000:
     expect roughly 4 * 50_000/(50+5) fail events. *)
  let evs = Failures.Process.generate rng t ~horizon:50_000.0 ~mtbf:50.0 ~mttr:5.0 in
  let fails = List.filter (fun e -> e.Failures.Process.kind = `Fail) evs in
  let expected = 4.0 *. (50_000.0 /. 55.0) in
  let n = float_of_int (List.length fails) in
  Alcotest.(check bool) "within 15% of expectation" true
    (Float.abs (n -. expected) < 0.15 *. expected)

let () =
  Alcotest.run "failures"
    [
      ( "scenarios",
        [
          Alcotest.test_case "singles" `Quick test_single_scenarios;
          Alcotest.test_case "double nodes" `Quick test_double_nodes;
          Alcotest.test_case "sampled doubles" `Quick test_sampled_double_nodes;
          Alcotest.test_case "sampled doubles, negative count" `Quick
            test_sampled_double_nodes_count;
          Alcotest.test_case "effective components" `Quick test_effective_components;
          Alcotest.test_case "random links" `Quick test_random_links;
          Alcotest.test_case "validation" `Quick test_validation;
        ] );
      ( "processes",
        [
          Alcotest.test_case "failures only" `Quick
            test_failures_only_sorted_and_unique_per_component;
          Alcotest.test_case "alternating" `Quick test_generate_alternates;
          Alcotest.test_case "rate sanity" `Quick test_mean_time_between_failures;
        ] );
    ]
