(* Tests for the static distance oracle and the goal-directed search
   kernel built on it: the accelerated paths must be byte-identical to
   the unaccelerated reference on arbitrary topologies, masks and
   budgets, and the oracle itself must match fresh BFS distances. *)

let torus44 () = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0

(* Random mostly-connected multigraph: a duplex ring plus random chords,
   so searches see cycles, parallel links and the occasional one-way
   shortcut. *)
let random_topo rng =
  let n = 2 + Sim.Prng.int rng 30 in
  let t = Net.Topology.create ~num_nodes:n in
  for v = 0 to n - 1 do
    ignore (Net.Topology.add_duplex t ~a:v ~b:((v + 1) mod n) ~capacity:10.0)
  done;
  for _ = 1 to Sim.Prng.int rng (2 * n) do
    let a = Sim.Prng.int rng n and b = Sim.Prng.int rng n in
    if a <> b then ignore (Net.Topology.add_link t ~src:a ~dst:b ~capacity:10.0)
  done;
  t

(* ---------- units ---------- *)

let test_matches_bfs () =
  let t = torus44 () in
  let o = Routing.Oracle.for_topo t in
  for dst = 0 to Net.Topology.num_nodes t - 1 do
    let d = Routing.Shortest.hop_distance_to t ~dst in
    Array.iteri
      (fun v expect ->
        Alcotest.(check int)
          (Printf.sprintf "dist %d->%d" v dst)
          expect
          (Routing.Oracle.distance o ~src:v ~dst))
      d
  done

let test_unreachable () =
  let t = Net.Topology.create ~num_nodes:3 in
  (* one-way chain 0 -> 1 -> 2: nothing reaches 0 *)
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:1.0);
  ignore (Net.Topology.add_link t ~src:1 ~dst:2 ~capacity:1.0);
  let o = Routing.Oracle.for_topo t in
  Alcotest.(check int) "forward" 2 (Routing.Oracle.distance o ~src:0 ~dst:2);
  Alcotest.(check bool) "no reverse path" true
    (Routing.Oracle.distance o ~src:2 ~dst:0 = max_int)

(* [f ()] and the number of [route.oracle_build] spans it ran. *)
let with_builds f =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  let x = Fun.protect ~finally:Sim.Prof.disable f in
  let builds =
    List.fold_left
      (fun n (s : Sim.Prof.span_stat) ->
        if s.name = "route.oracle_build" then n + s.count else n)
      0 (Sim.Prof.report ()).Sim.Prof.spans
  in
  Sim.Prof.reset ();
  (x, builds)

(* Two live topologies looked up alternately keep one oracle each. *)
let test_lazy_memoised () =
  let a = torus44 () and b = torus44 () in
  let same, builds =
    with_builds (fun () ->
        let oa = Routing.Oracle.for_topo a and ob = Routing.Oracle.for_topo b in
        List.for_all
          (fun _ ->
            Routing.Oracle.for_topo a == oa && Routing.Oracle.for_topo b == ob)
          [ 1; 2; 3 ])
  in
  Alcotest.(check bool) "memoised (same matrices)" true same;
  Alcotest.(check int) "one build per topology" 2 builds

let test_add_link_invalidates () =
  let t = Net.Topology.create ~num_nodes:3 in
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:1.0);
  ignore (Net.Topology.add_link t ~src:1 ~dst:2 ~capacity:1.0);
  let o = Routing.Oracle.for_topo t in
  Alcotest.(check int) "chain" 2 (Routing.Oracle.distance o ~src:0 ~dst:2);
  ignore (Net.Topology.add_link t ~src:0 ~dst:2 ~capacity:1.0);
  let (o', o''), builds =
    with_builds (fun () ->
        let o' = Routing.Oracle.for_topo t in
        (o', Routing.Oracle.for_topo t))
  in
  Alcotest.(check int) "one rebuild" 1 builds;
  Alcotest.(check bool) "rebuilt" true ((not (o == o')) && o' == o'');
  Alcotest.(check int) "shortcut seen" 1 (Routing.Oracle.distance o' ~src:0 ~dst:2)

(* An oracle lives no longer than its topology: once the topology is
   unreachable, major collections free its matrix. *)
let test_dies_with_topology () =
  let freed = ref false in
  let[@inline never] look_up () =
    let o = Routing.Oracle.for_topo (torus44 ()) in
    Gc.finalise_last (fun () -> freed := true) (Routing.Oracle.raw o)
  in
  look_up ();
  for _ = 1 to 4 do
    Gc.full_major ()
  done;
  Alcotest.(check bool) "matrix finalised" true !freed

let test_int16_guard () =
  let t = Net.Topology.create ~num_nodes:70_000 in
  Alcotest.(check bool) "opt is None" true (Routing.Oracle.for_topo_opt t = None);
  (match Routing.Oracle.for_topo t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "for_topo must refuse 70k nodes");
  (* The search layer degrades gracefully: no oracle, plain BFS. *)
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:1.0);
  Alcotest.(check (option int))
    "shortest_hops still works" (Some 1)
    (Routing.Shortest.shortest_hops t ~src:0 ~dst:1)

let test_cross_domain_sharing () =
  let t = torus44 () in
  let o = Routing.Oracle.for_topo t in
  let expect = Routing.Oracle.distance o ~src:0 ~dst:15 in
  let worker () =
    Routing.Oracle.for_topo t == o
    && Routing.Oracle.distance o ~src:0 ~dst:15 = expect
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  Alcotest.(check bool) "domain 1 shares" true (Domain.join d1);
  Alcotest.(check bool) "domain 2 shares" true (Domain.join d2)

(* hop_distance results must stay private to the caller (the workspace
   refactor could have leaked the reusable scratch array). *)
let test_bfs_distances_fresh_array () =
  let t = torus44 () in
  let d1 = Routing.Shortest.hop_distance t ~src:0 in
  let snapshot = Array.copy d1 in
  let d2 = Routing.Shortest.hop_distance t ~src:5 in
  Alcotest.(check bool) "first result unchanged" true (d1 = snapshot);
  d2.(0) <- 12345;
  let d3 = Routing.Shortest.hop_distance t ~src:5 in
  Alcotest.(check bool) "caller mutation invisible" true (d3.(0) <> 12345 || d3 != d2)

(* The routing micro tier's claim on a small loaded state: establishing a
   seeded request sample and removing each request again routes the same
   primary and backups link for link with and without oracle pruning,
   and pruning never adds admission checks. *)
let test_pruned_establish_matches_reference () =
  let ns = (Eval.Setup.build Eval.Setup.Torus4).Eval.Setup.ns in
  let requests =
    Workload.Generator.random_pairs (Sim.Prng.create 1009) ~backups:1
      ~mux_degree:3 (Bcp.Netstate.topology ns) ~count:64
  in
  let paths (conn : Bcp.Dconn.t) =
    ( Net.Path.links conn.Bcp.Dconn.primary.Rtchan.Channel.path,
      List.map
        (fun (b : Bcp.Dconn.backup) -> Net.Path.links b.Bcp.Dconn.path)
        conn.Bcp.Dconn.backups )
  in
  let checks () =
    Option.value ~default:0
      (List.assoc_opt "establish.admission_checks"
         (Sim.Prof.report ()).Sim.Prof.counters)
  in
  let run reference =
    Sim.Prof.reset ();
    let routed =
      List.mapi
        (fun i (r : Workload.Generator.request) ->
          let conn_id = 1_000_000 + i in
          match
            Bcp.Establish.establish ~reference ns ~conn_id r
          with
          | Ok conn ->
            let p = paths conn in
            Bcp.Netstate.remove_dconn ns conn_id;
            Some p
          | Error _ -> None)
        requests
    in
    (routed, checks ())
  in
  Sim.Prof.enable ();
  let (pruned, pruned_checks), (reference, reference_checks) =
    Fun.protect
      ~finally:(fun () ->
        Sim.Prof.disable ();
        Sim.Prof.reset ())
      (fun () ->
        let p = run false in
        (p, run true))
  in
  Alcotest.(check bool) "some requests admitted" true
    (List.exists Option.is_some pruned);
  Alcotest.(check bool) "identical paths, link for link" true
    (pruned = reference);
  Alcotest.(check bool)
    (Printf.sprintf "admission checks %d (pruned) <= %d (reference)"
       pruned_checks reference_checks)
    true
    (pruned_checks <= reference_checks)

(* ---------- equivalence fuzz ---------- *)

(* One random scenario: topology, banned nodes/links, endpoints, budget. *)
let scenario seed =
  let rng = Sim.Prng.create seed in
  let topo = random_topo rng in
  let n = Net.Topology.num_nodes topo in
  let m = Net.Topology.num_links topo in
  let node_banned = Array.init n (fun _ -> Sim.Prng.int rng 8 = 0) in
  let link_banned = Array.init m (fun _ -> Sim.Prng.int rng 8 = 0) in
  let node_ok v = not node_banned.(v) in
  let link_ok id = not link_banned.(id) in
  let src = Sim.Prng.int rng n in
  let dst = (src + 1 + Sim.Prng.int rng (n - 1)) mod n in
  let budget = 1 + Sim.Prng.int rng (n + 2) in
  (topo, link_ok, node_ok, src, dst, budget)

let prop_pruned_search_byte_identical =
  QCheck.Test.make ~name:"pruned budgeted search = reference, link for link"
    ~count:300 QCheck.small_nat (fun seed ->
      let topo, link_ok, node_ok, src, dst, budget = scenario seed in
      let run reference =
        Routing.Shortest.shortest_path ~link_ok ~node_ok ~max_hops:budget
          ~reference topo ~src ~dst
      in
      let reference = run true in
      let accelerated = run false in
      Option.map Net.Path.links accelerated
      = Option.map Net.Path.links reference)

let prop_shortest_hops_equal =
  QCheck.Test.make ~name:"bidirectional shortest_hops = reference search"
    ~count:300 QCheck.small_nat (fun seed ->
      let topo, link_ok, node_ok, src, dst, _ = scenario seed in
      let run reference =
        ( Routing.Shortest.shortest_hops ~link_ok ~node_ok ~reference topo ~src
            ~dst,
          Routing.Shortest.shortest_hops ~reference topo ~src ~dst )
      in
      run true = run false)

(* Hop distances to [dst] by a BFS over the [in_links] lists and link
   records, not the CSR that the oracle and [hop_distance_to] read. *)
let distances_to_by_lists topo ~dst =
  let d = Array.make (Net.Topology.num_nodes topo) max_int in
  let queue = Queue.create () in
  d.(dst) <- 0;
  Queue.push dst queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun id ->
        let v = (Net.Topology.link topo id).Net.Topology.src in
        if d.(v) = max_int then begin
          d.(v) <- d.(u) + 1;
          Queue.push v queue
        end)
      (Net.Topology.in_links topo u)
  done;
  d

let prop_oracle_equals_fresh_bfs =
  QCheck.Test.make ~name:"oracle distances = fresh BFS" ~count:100
    QCheck.small_nat (fun seed ->
      let rng = Sim.Prng.create seed in
      let topo = random_topo rng in
      let o = Routing.Oracle.for_topo topo in
      let n = Net.Topology.num_nodes topo in
      List.for_all
        (fun dst ->
          let d = distances_to_by_lists topo ~dst in
          Routing.Shortest.hop_distance_to topo ~dst = d
          && Array.for_all
               (fun v -> Routing.Oracle.distance o ~src:v ~dst = d.(v))
               (Array.init n Fun.id))
        (List.init n Fun.id))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "oracle"
    [
      ( "units",
        [
          Alcotest.test_case "matches BFS on torus" `Quick test_matches_bfs;
          Alcotest.test_case "unreachable sentinel" `Quick test_unreachable;
          Alcotest.test_case "lazy + memoised" `Quick test_lazy_memoised;
          Alcotest.test_case "add_link invalidates" `Quick
            test_add_link_invalidates;
          Alcotest.test_case "dies with its topology" `Quick
            test_dies_with_topology;
          Alcotest.test_case "int16 overflow guard" `Quick test_int16_guard;
          Alcotest.test_case "cross-domain sharing" `Quick
            test_cross_domain_sharing;
          Alcotest.test_case "hop_distance arrays are fresh" `Quick
            test_bfs_distances_fresh_array;
          Alcotest.test_case "pruned establish = reference on loaded 4x4"
            `Quick test_pruned_establish_matches_reference;
        ] );
      qsuite "equivalence"
        [
          prop_pruned_search_byte_identical;
          prop_shortest_hops_equal;
          prop_oracle_equals_fresh_bfs;
        ];
    ]
