(* Tests for shortest-path and disjoint-path routing. *)

let torus44 () = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0
let mesh33 () = Net.Builders.mesh ~rows:3 ~cols:3 ~capacity:10.0

(* ---------- Shortest ---------- *)

let test_bfs_distances () =
  let t = mesh33 () in
  let d = Routing.Shortest.hop_distance t ~src:0 in
  Alcotest.(check int) "self" 0 d.(0);
  Alcotest.(check int) "adjacent" 1 d.(1);
  Alcotest.(check int) "diagonal corner" 4 d.(8)

let test_bfs_reverse () =
  let t = Net.Topology.create ~num_nodes:3 in
  (* one-way chain 0 -> 1 -> 2 *)
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:1.0);
  ignore (Net.Topology.add_link t ~src:1 ~dst:2 ~capacity:1.0);
  let fwd = Routing.Shortest.hop_distance t ~src:0 in
  let bwd = Routing.Shortest.hop_distance_to t ~dst:0 in
  Alcotest.(check int) "forward reach" 2 fwd.(2);
  Alcotest.(check bool) "no reverse path" true (bwd.(2) = max_int)

let test_shortest_path_basic () =
  let t = mesh33 () in
  match Routing.Shortest.shortest_path t ~src:0 ~dst:8 with
  | None -> Alcotest.fail "no path"
  | Some p ->
    Alcotest.(check int) "hops" 4 (Net.Path.hops p);
    Alcotest.(check int) "src" 0 p.Net.Path.src;
    Alcotest.(check int) "dst" 8 p.Net.Path.dst

let test_shortest_path_self () =
  let t = mesh33 () in
  match Routing.Shortest.shortest_path t ~src:4 ~dst:4 with
  | None -> Alcotest.fail "self path should exist"
  | Some p -> Alcotest.(check int) "zero hops" 0 (Net.Path.hops p)

let test_shortest_with_link_filter () =
  let t = Net.Builders.line ~nodes:3 ~capacity:10.0 in
  (* Ban the only forward link 0->1 (id 0). *)
  let link_ok id = id <> 0 in
  Alcotest.(check bool) "unroutable" true
    (Routing.Shortest.shortest_path ~link_ok t ~src:0 ~dst:2 = None)

let test_shortest_with_node_filter () =
  let t = mesh33 () in
  (* Center node banned: corner-to-corner must go around (still 4 hops). *)
  let node_ok v = v <> 4 in
  (match Routing.Shortest.shortest_path ~node_ok t ~src:0 ~dst:8 with
  | None -> Alcotest.fail "border route exists"
  | Some p ->
    Alcotest.(check int) "hops" 4 (Net.Path.hops p);
    Alcotest.(check bool) "avoids center" false (Net.Path.uses_node t p 4));
  (* Endpoints are exempt from node_ok. *)
  let node_ok v = v <> 0 && v <> 8 in
  Alcotest.(check bool) "endpoints exempt" true
    (Routing.Shortest.shortest_path ~node_ok t ~src:0 ~dst:8 <> None)

let test_shortest_max_hops () =
  let t = mesh33 () in
  Alcotest.(check bool) "within budget" true
    (Routing.Shortest.shortest_path ~max_hops:4 t ~src:0 ~dst:8 <> None);
  Alcotest.(check bool) "budget too small" true
    (Routing.Shortest.shortest_path ~max_hops:3 t ~src:0 ~dst:8 = None)

let test_shortest_hops () =
  let t = mesh33 () in
  Alcotest.(check (option int)) "hops only" (Some 4)
    (Routing.Shortest.shortest_hops t ~src:0 ~dst:8)

(* ---------- Disjoint ---------- *)

(* The paper's sequential disjoint search as [Bcp.Establish] runs it: each
   path is a shortest path whose predicates reject the interior
   components of the paths routed before it, held in one banned mask. *)
let sequential_disjoint ?max_hops t ~src ~dst ~count =
  let rec route acc k =
    if k = 0 then List.rev acc
    else begin
      let banned =
        Net.Component.Mask.scratch ~num_nodes:(Net.Topology.num_nodes t)
          ~num_links:(Net.Topology.num_links t)
      in
      List.iter (fun p -> Net.Path.mask_interior t p banned) acc;
      match
        Routing.Shortest.shortest_path
          ~link_ok:(fun id -> not (Net.Component.Mask.mem_link banned id))
          ~node_ok:(fun v -> not (Net.Component.Mask.mem_node banned v))
          ?max_hops t ~src ~dst
      with
      | None -> List.rev acc
      | Some p -> route (p :: acc) (k - 1)
    end
  in
  route [] count

let test_sequential_disjoint_torus () =
  let t = torus44 () in
  let paths = sequential_disjoint t ~src:0 ~dst:5 ~count:3 in
  Alcotest.(check int) "three disjoint paths in a torus" 3 (List.length paths);
  (* Pairwise interior-disjoint. *)
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "disjoint" true (Net.Path.disjoint t a b))
    (pairs paths);
  (* Shortest first. *)
  let hops = List.map Net.Path.hops paths in
  Alcotest.(check (list int)) "non-decreasing" (List.sort Int.compare hops) hops

let test_disjoint_exhaustion () =
  let t = Net.Builders.line ~nodes:3 ~capacity:10.0 in
  let paths = sequential_disjoint t ~src:0 ~dst:2 ~count:2 in
  Alcotest.(check int) "line supports one path" 1 (List.length paths)

let test_disjoint_with_max_hops () =
  let t = mesh33 () in
  (* Corner pair: two disjoint 4-hop paths exist; a third would be longer. *)
  let paths = sequential_disjoint ~max_hops:4 t ~src:0 ~dst:8 ~count:3 in
  Alcotest.(check int) "two within budget" 2 (List.length paths)

let test_disjoint_avoiding () =
  let t = torus44 () in
  let p1 = Option.get (Routing.Shortest.shortest_path t ~src:0 ~dst:5) in
  match sequential_disjoint t ~src:0 ~dst:5 ~count:2 with
  | [ p1'; p2 ] ->
    Alcotest.(check (list int)) "first is the shortest path" (Net.Path.links p1)
      (Net.Path.links p1');
    Alcotest.(check bool) "disjoint" true (Net.Path.disjoint t p1 p2)
  | _ -> Alcotest.fail "second path exists"

(* ---------- properties ---------- *)

let prop_disjoint_paths_are_disjoint =
  QCheck.Test.make ~name:"sequential_disjoint yields pairwise-disjoint paths"
    ~count:60
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let t = torus44 () in
      let paths = sequential_disjoint t ~src:a ~dst:b ~count:4 in
      let rec pairwise = function
        | [] -> true
        | x :: rest ->
          List.for_all (fun y -> Net.Path.disjoint t x y) rest && pairwise rest
      in
      pairwise paths)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "routing"
    [
      ( "shortest",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "bfs reverse" `Quick test_bfs_reverse;
          Alcotest.test_case "basic path" `Quick test_shortest_path_basic;
          Alcotest.test_case "self path" `Quick test_shortest_path_self;
          Alcotest.test_case "link filter" `Quick test_shortest_with_link_filter;
          Alcotest.test_case "node filter" `Quick test_shortest_with_node_filter;
          Alcotest.test_case "max hops" `Quick test_shortest_max_hops;
          Alcotest.test_case "hops only" `Quick test_shortest_hops;
        ] );
      ( "disjoint",
        [
          Alcotest.test_case "torus three paths" `Quick
            test_sequential_disjoint_torus;
          Alcotest.test_case "exhaustion" `Quick test_disjoint_exhaustion;
          Alcotest.test_case "with hop budget" `Quick test_disjoint_with_max_hops;
          Alcotest.test_case "avoiding" `Quick test_disjoint_avoiding;
        ] );
      qsuite "props" [ prop_disjoint_paths_are_disjoint ];
    ]
