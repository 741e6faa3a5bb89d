(* Tests for weighted (hop-budgeted) Dijkstra and the spare-aware backup
   routing strategy built on it. *)

let mesh33 () = Net.Builders.mesh ~rows:3 ~cols:3 ~capacity:10.0

let uniform _ = Some 1.0

let test_matches_bfs_on_uniform_costs () =
  let t = mesh33 () in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      if src <> dst then begin
        let bfs = Option.get (Routing.Shortest.shortest_path t ~src ~dst) in
        match Routing.Dijkstra.shortest_path ~cost:uniform t ~src ~dst with
        | None -> Alcotest.failf "no path %d->%d" src dst
        | Some (p, c) ->
          Alcotest.(check int)
            (Printf.sprintf "%d->%d hops" src dst)
            (Net.Path.hops bfs) (Net.Path.hops p);
          Alcotest.(check (float 1e-9)) "cost = hops" (float_of_int (Net.Path.hops p)) c
      end
    done
  done

let test_avoids_expensive_links () =
  (* Line 0-1-2 plus a 3-hop detour 0-3-4-2; make the direct middle link
     expensive: Dijkstra must take the detour. *)
  let t = Net.Topology.create ~num_nodes:5 in
  let l01 = Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:1.0 in
  let l12 = Net.Topology.add_link t ~src:1 ~dst:2 ~capacity:1.0 in
  let _ = Net.Topology.add_link t ~src:0 ~dst:3 ~capacity:1.0 in
  let _ = Net.Topology.add_link t ~src:3 ~dst:4 ~capacity:1.0 in
  let _ = Net.Topology.add_link t ~src:4 ~dst:2 ~capacity:1.0 in
  let cost id = if id = l12 then Some 10.0 else Some 1.0 in
  (match Routing.Dijkstra.shortest_path ~cost t ~src:0 ~dst:2 with
  | None -> Alcotest.fail "path expected"
  | Some (p, c) ->
    Alcotest.(check int) "detour" 3 (Net.Path.hops p);
    Alcotest.(check (float 1e-9)) "cost 3" 3.0 c);
  (* With a hop budget of 2 the expensive direct route is forced. *)
  match Routing.Dijkstra.shortest_path ~cost ~max_hops:2 t ~src:0 ~dst:2 with
  | None -> Alcotest.fail "budgeted path expected"
  | Some (p, c) ->
    Alcotest.(check (list int)) "direct" [ l01; l12 ] (Net.Path.links p);
    Alcotest.(check (float 1e-9)) "cost 11" 11.0 c

let test_excluded_links_and_nodes () =
  let t = mesh33 () in
  let cost id = if id = 0 then None else Some 1.0 in
  (match Routing.Dijkstra.shortest_path ~cost t ~src:0 ~dst:8 with
  | None -> Alcotest.fail "path expected"
  | Some (p, _) -> Alcotest.(check bool) "avoids link 0" false (Net.Path.uses_link p 0));
  let node_ok v = v <> 4 in
  match Routing.Dijkstra.shortest_path ~cost:uniform ~node_ok t ~src:0 ~dst:8 with
  | None -> Alcotest.fail "path expected"
  | Some (p, _) ->
    Alcotest.(check bool) "avoids center" false (Net.Path.uses_node t p 4)

let test_unreachable_and_self () =
  let t = Net.Topology.create ~num_nodes:2 in
  Alcotest.(check bool) "unreachable" true
    (Routing.Dijkstra.shortest_path ~cost:uniform t ~src:0 ~dst:1 = None);
  let t2 = mesh33 () in
  match Routing.Dijkstra.shortest_path ~cost:uniform t2 ~src:4 ~dst:4 with
  | Some (p, c) ->
    Alcotest.(check int) "zero hops" 0 (Net.Path.hops p);
    Alcotest.(check (float 1e-9)) "zero cost" 0.0 c
  | None -> Alcotest.fail "self path"

let test_negative_cost_rejected () =
  let t = mesh33 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Routing.Dijkstra.shortest_path ~cost:(fun _ -> Some (-1.0)) t ~src:0 ~dst:8);
       false
     with Invalid_argument _ -> true)

(* Property: Dijkstra's cost never exceeds BFS hop count when every link
   costs 1, and respects any hop budget it returns under. *)
let prop_budget_respected =
  QCheck.Test.make ~name:"hop budget respected" ~count:100
    QCheck.(triple (int_bound 15) (int_bound 15) (int_range 1 8))
    (fun (src, dst, budget) ->
      QCheck.assume (src <> dst);
      let t = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:1.0 in
      match Routing.Dijkstra.shortest_path ~cost:uniform ~max_hops:budget t ~src ~dst with
      | None ->
        (* Only acceptable if BFS distance exceeds the budget. *)
        (match Routing.Shortest.shortest_hops t ~src ~dst with
        | Some d -> d > budget
        | None -> true)
      | Some (p, _) -> Net.Path.hops p <= budget)

(* ---------- spare-aware backup routing ---------- *)

let test_min_spare_reduces_spare () =
  let spare_for strategy =
    let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
    let ns = Bcp.Netstate.create topo () in
    let rng = Sim.Prng.create 42 in
    List.iteri
      (fun i (r : Workload.Generator.request) ->
        ignore
          (Bcp.Establish.establish ~backup_routing:strategy ns ~conn_id:i r))
      (Workload.Generator.shuffled rng
         (Workload.Generator.all_pairs ~mux_degree:3 topo));
    (Bcp.Netstate.spare_fraction (Bcp.Netstate.resources ns |> fun _ -> ns),
     Bcp.Netstate.network_load ns)
  in
  let s_hops, l_hops = spare_for Bcp.Establish.Min_hops in
  let s_spare, l_spare = spare_for Bcp.Establish.Min_spare_increment in
  Alcotest.(check (float 1e-9)) "same primary load" l_hops l_spare;
  Alcotest.(check bool) "spare reduced" true (s_spare < s_hops);
  Alcotest.(check bool) "still protective" true (s_spare > 0.0)

let test_min_spare_respects_disjointness_and_budget () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create topo () in
  match
    Bcp.Establish.establish ~backup_routing:Bcp.Establish.Min_spare_increment ns
      ~conn_id:0
      {
        Bcp.Establish.src = 0;
        dst = 5;
        traffic = Rtchan.Traffic.of_bandwidth 1.0;
        qos = Rtchan.Qos.default;
        backups = 2;
        mux_degree = 3;
      }
  with
  | Error e -> Alcotest.failf "establish: %a" Bcp.Establish.pp_reject e
  | Ok c ->
    let shortest =
      Option.get (Routing.Shortest.shortest_hops topo ~src:0 ~dst:5)
    in
    List.iter
      (fun b ->
        Alcotest.(check bool) "within hop budget" true
          (Net.Path.hops b.Bcp.Dconn.path <= shortest + 2);
        Alcotest.(check bool) "disjoint from primary" true
          (Net.Path.disjoint topo b.Bcp.Dconn.path
             c.Bcp.Dconn.primary.Rtchan.Channel.path))
      c.Bcp.Dconn.backups;
    match c.Bcp.Dconn.backups with
    | [ b1; b2 ] ->
      Alcotest.(check bool) "backups mutually disjoint" true
        (Net.Path.disjoint topo b1.Bcp.Dconn.path b2.Bcp.Dconn.path)
    | _ -> Alcotest.fail "two backups expected"

(* Oracle: enumerate every loopless path on a small random graph and
   compare minimum costs with Dijkstra. *)
let all_paths topo ~src ~dst ~max_hops =
  let rec extend node visited acc_links acc =
    if node = dst && acc_links <> [] then List.rev acc_links :: acc
    else if List.length acc_links >= max_hops then acc
    else
      List.fold_left
        (fun acc id ->
          let l = Net.Topology.link topo id in
          let v = l.Net.Topology.dst in
          if List.mem v visited then acc
          else extend v (v :: visited) (id :: acc_links) acc)
        acc
        (Net.Topology.out_links topo node)
  in
  extend src [ src ] [] []

let prop_dijkstra_matches_bruteforce =
  QCheck.Test.make ~name:"Dijkstra = brute-force minimum on random graphs"
    ~count:60
    QCheck.(triple (int_bound 10000) (int_bound 5) (int_bound 5))
    (fun (seed, src, dst) ->
      QCheck.assume (src <> dst);
      let rng = Sim.Prng.create seed in
      let topo =
        Net.Builders.random_connected rng ~nodes:6 ~extra_edges:4 ~capacity:1.0
      in
      (* Deterministic pseudo-random positive link costs. *)
      let cost_of id = 1.0 +. float_of_int ((id * 2654435761) mod 97) /. 10.0 in
      let cost id = Some (cost_of id) in
      let brute =
        List.fold_left
          (fun best links ->
            let c = List.fold_left (fun acc id -> acc +. cost_of id) 0.0 links in
            match best with Some b when b <= c -> best | _ -> Some c)
          None
          (all_paths topo ~src ~dst ~max_hops:5)
      in
      match (Routing.Dijkstra.shortest_path ~cost ~max_hops:5 topo ~src ~dst, brute) with
      | None, None -> true
      | Some (_, c), Some b -> Float.abs (c -. b) < 1e-9
      | Some _, None | None, Some _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dijkstra"
    [
      ( "weighted",
        [
          Alcotest.test_case "uniform = BFS" `Quick test_matches_bfs_on_uniform_costs;
          Alcotest.test_case "expensive links avoided" `Quick
            test_avoids_expensive_links;
          Alcotest.test_case "exclusions" `Quick test_excluded_links_and_nodes;
          Alcotest.test_case "unreachable/self" `Quick test_unreachable_and_self;
          Alcotest.test_case "negative cost" `Quick test_negative_cost_rejected;
        ] );
      qsuite "props"
        [
          prop_budget_respected;
          prop_dijkstra_matches_bruteforce;
        ];
      ( "spare-aware",
        [
          Alcotest.test_case "reduces spare" `Quick test_min_spare_reduces_spare;
          Alcotest.test_case "constraints kept" `Quick
            test_min_spare_respects_disjointness_and_budget;
        ] );
    ]
