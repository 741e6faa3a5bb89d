(* Tests for the network model: components, topology, paths, builders. *)

let c_node v = Net.Component.Node v
let c_link l = Net.Component.Link l

(* ---------- Component ---------- *)

let test_component_order () =
  Alcotest.(check bool) "node < link" true
    (Net.Component.compare (c_node 5) (c_link 0) < 0);
  Alcotest.(check bool) "node order" true
    (Net.Component.compare (c_node 1) (c_node 2) < 0);
  Alcotest.(check bool) "equal" true (Net.Component.equal (c_link 3) (c_link 3));
  Alcotest.(check bool) "not equal across kinds" false
    (Net.Component.equal (c_link 3) (c_node 3))

let test_component_predicates () =
  Alcotest.(check bool) "is_node" true (Net.Component.is_node (c_node 0));
  Alcotest.(check bool) "is_link" true (not (Net.Component.is_node (c_link 0)));
  Alcotest.(check string) "to_string" "node:4" (Net.Component.to_string (c_node 4))

let test_component_inter_card () =
  let s1 = Net.Component.Set.of_list [ c_node 1; c_node 2; c_link 1 ] in
  let s2 = Net.Component.Set.of_list [ c_node 2; c_link 1; c_link 2 ] in
  Alcotest.(check int) "intersection size" 2 (Net.Component.inter_card s1 s2);
  Alcotest.(check int) "empty" 0
    (Net.Component.inter_card s1 Net.Component.Set.empty)

(* ---------- Topology ---------- *)

let test_topology_build () =
  let t = Net.Topology.create ~num_nodes:3 in
  let ab = Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:10.0 in
  let ba, _ = Net.Topology.add_duplex t ~a:1 ~b:2 ~capacity:5.0 in
  Alcotest.(check int) "num nodes" 3 (Net.Topology.num_nodes t);
  Alcotest.(check int) "num links" 3 (Net.Topology.num_links t);
  Alcotest.(check int) "first id" 0 ab;
  let l = Net.Topology.link t ba in
  Alcotest.(check int) "src" 1 l.Net.Topology.src;
  Alcotest.(check int) "dst" 2 l.Net.Topology.dst;
  Alcotest.(check (float 1e-9)) "total capacity" 20.0 (Net.Topology.total_capacity t)

let test_topology_adjacency () =
  let t = Net.Topology.create ~num_nodes:4 in
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:1.0);
  ignore (Net.Topology.add_link t ~src:0 ~dst:2 ~capacity:1.0);
  ignore (Net.Topology.add_link t ~src:3 ~dst:0 ~capacity:1.0);
  Alcotest.(check (list int)) "out links in insertion order" [ 0; 1 ]
    (Net.Topology.out_links t 0);
  Alcotest.(check (list int)) "in links" [ 2 ] (Net.Topology.in_links t 0);
  Alcotest.(check (list int)) "neighbors" [ 1; 2 ] (Net.Topology.neighbors t 0);
  Alcotest.(check int) "degree" 2 (Net.Topology.degree t 0);
  Alcotest.(check (option int)) "find_link" (Some 1)
    (Net.Topology.find_link t ~src:0 ~dst:2);
  Alcotest.(check (option int)) "find_link absent" None
    (Net.Topology.find_link t ~src:1 ~dst:0)

let test_topology_validation () =
  let t = Net.Topology.create ~num_nodes:2 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "self loop" true
    (raises (fun () -> ignore (Net.Topology.add_link t ~src:0 ~dst:0 ~capacity:1.0)));
  Alcotest.(check bool) "bad node" true
    (raises (fun () -> ignore (Net.Topology.add_link t ~src:0 ~dst:9 ~capacity:1.0)));
  Alcotest.(check bool) "bad capacity" true
    (raises (fun () -> ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:0.0)));
  Alcotest.(check bool) "unknown link id" true
    (raises (fun () -> ignore (Net.Topology.link t 5)))

(* ---------- Builders ---------- *)

let test_torus_shape () =
  let t = Net.Builders.torus ~rows:8 ~cols:8 ~capacity:200.0 in
  Alcotest.(check int) "nodes" 64 (Net.Topology.num_nodes t);
  (* 8x8 torus: 2 links per node per dimension = 256 simplex links. *)
  Alcotest.(check int) "links" 256 (Net.Topology.num_links t);
  for v = 0 to 63 do
    Alcotest.(check int) (Printf.sprintf "degree of %d" v) 4 (Net.Topology.degree t v)
  done

let test_mesh_shape () =
  let t = Net.Builders.mesh ~rows:8 ~cols:8 ~capacity:300.0 in
  Alcotest.(check int) "nodes" 64 (Net.Topology.num_nodes t);
  (* 2 * 7 * 8 undirected edges, two simplex links each. *)
  Alcotest.(check int) "links" 224 (Net.Topology.num_links t);
  Alcotest.(check int) "corner degree" 2 (Net.Topology.degree t 0);
  Alcotest.(check int) "edge degree" 3 (Net.Topology.degree t 1);
  Alcotest.(check int) "interior degree" 4
    (Net.Topology.degree t (Net.Builders.grid_node ~cols:8 ~row:3 ~col:3))

let test_small_torus_no_duplicate_wrap () =
  (* A 2-wide torus must not duplicate the single neighbour pair. *)
  let t = Net.Builders.torus ~rows:2 ~cols:2 ~capacity:1.0 in
  Alcotest.(check int) "links" 8 (Net.Topology.num_links t)

let test_ring_line_star_complete () =
  let ring = Net.Builders.ring ~nodes:5 ~capacity:1.0 in
  Alcotest.(check int) "ring links" 10 (Net.Topology.num_links ring);
  let line = Net.Builders.line ~nodes:5 ~capacity:1.0 in
  Alcotest.(check int) "line links" 8 (Net.Topology.num_links line);
  let star = Net.Builders.star ~leaves:4 ~capacity:1.0 in
  Alcotest.(check int) "star links" 8 (Net.Topology.num_links star);
  Alcotest.(check int) "hub degree" 4 (Net.Topology.degree star 0);
  let k4 = Net.Builders.complete ~nodes:4 ~capacity:1.0 in
  Alcotest.(check int) "complete links" 12 (Net.Topology.num_links k4)

let test_hypercube () =
  let h = Net.Builders.hypercube ~dim:3 ~capacity:1.0 in
  Alcotest.(check int) "nodes" 8 (Net.Topology.num_nodes h);
  (* 12 undirected edges, two simplex links each. *)
  Alcotest.(check int) "links" 24 (Net.Topology.num_links h);
  for v = 0 to 7 do
    Alcotest.(check int) "degree" 3 (Net.Topology.degree h v)
  done

let test_grid_coords () =
  Alcotest.(check (pair int int)) "coord" (2, 3) (Net.Builders.grid_coord ~cols:8 19);
  Alcotest.(check int) "node" 19 (Net.Builders.grid_node ~cols:8 ~row:2 ~col:3)

let test_random_connected () =
  let rng = Sim.Prng.create 4 in
  let t = Net.Builders.random_connected rng ~nodes:20 ~extra_edges:10 ~capacity:1.0 in
  Alcotest.(check int) "nodes" 20 (Net.Topology.num_nodes t);
  (* spanning tree 19 edges + 10 chords, two simplex links each *)
  Alcotest.(check int) "links" 58 (Net.Topology.num_links t);
  (* connectivity: BFS reaches everyone *)
  let dist = Routing.Shortest.hop_distance t ~src:0 in
  Array.iter
    (fun d -> Alcotest.(check bool) "reachable" true (d < max_int))
    dist

(* ---------- Path ---------- *)

let line4 () = Net.Builders.line ~nodes:4 ~capacity:10.0

let path_0_to_3 t =
  (* links are added in pairs: 0<->1 = ids 0,1; 1<->2 = 2,3; 2<->3 = 4,5 *)
  Net.Path.make t ~src:0 ~dst:3 ~links:[ 0; 2; 4 ]

let test_path_make_and_nodes () =
  let t = line4 () in
  let p = path_0_to_3 t in
  Alcotest.(check int) "hops" 3 (Net.Path.hops p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (Net.Path.nodes t p);
  Alcotest.(check (list int)) "intermediate" [ 1; 2 ]
    (Net.Path.intermediate_nodes t p)

let test_path_validation () =
  let t = line4 () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "broken chain" true
    (raises (fun () -> ignore (Net.Path.make t ~src:0 ~dst:3 ~links:[ 0; 4 ])));
  Alcotest.(check bool) "wrong destination" true
    (raises (fun () -> ignore (Net.Path.make t ~src:0 ~dst:2 ~links:[ 0; 2; 4 ])))

let test_path_components () =
  let t = line4 () in
  let p = path_0_to_3 t in
  let comps = Net.Path.components t p in
  (* c(M) = 2*hops + 1 = 7: 4 nodes + 3 links *)
  Alcotest.(check int) "component count" 7 (Net.Component.Set.cardinal comps);
  Alcotest.(check bool) "endpoint included" true
    (Net.Component.Set.mem (c_node 0) comps);
  let interior =
    Net.Component.Mask.scratch ~num_nodes:(Net.Topology.num_nodes t)
      ~num_links:(Net.Topology.num_links t)
  in
  Net.Path.mask_interior t p interior;
  let members =
    List.filter (Net.Component.Mask.mem_node interior)
      (List.init (Net.Topology.num_nodes t) Fun.id)
    @ List.filter (Net.Component.Mask.mem_link interior)
        (List.init (Net.Topology.num_links t) Fun.id)
  in
  Alcotest.(check int) "interior count" 5 (List.length members);
  Alcotest.(check bool) "endpoints not interior" false
    (Net.Component.Mask.mem_node interior 0 || Net.Component.Mask.mem_node interior 3)

let test_path_uses () =
  let t = line4 () in
  let p = path_0_to_3 t in
  Alcotest.(check bool) "uses link" true (Net.Path.uses_link p 2);
  Alcotest.(check bool) "uses node incl endpoint" true (Net.Path.uses_node t p 3);
  Alcotest.(check bool) "not reverse link" false (Net.Path.uses_link p 1);
  Alcotest.(check bool) "uses_component" true
    (Net.Path.uses_component t p (c_node 1))

let test_path_sharing () =
  let t = Net.Builders.ring ~nodes:6 ~capacity:10.0 in
  (* Clockwise 0->1->2->3 and counter-clockwise 0->5->4->3. *)
  let l a b = Option.get (Net.Topology.find_link t ~src:a ~dst:b) in
  let cw = Net.Path.make t ~src:0 ~dst:3 ~links:[ l 0 1; l 1 2; l 2 3 ] in
  let ccw = Net.Path.make t ~src:0 ~dst:3 ~links:[ l 0 5; l 5 4; l 4 3 ] in
  Alcotest.(check bool) "disjoint interiors" true (Net.Path.disjoint t cw ccw);
  (* Shared components = the two endpoints only. *)
  Alcotest.(check int) "sc = 2" 2 (Net.Path.shared_components t cw ccw);
  Alcotest.(check int) "sc with itself = c(M) = 7" 7
    (Net.Path.shared_components t cw cw);
  Alcotest.(check bool) "not disjoint with itself" false
    (Net.Path.disjoint t cw cw)

let test_path_of_links () =
  let t = line4 () in
  let p = Net.Path.of_links t [ 0; 2 ] in
  Alcotest.(check int) "src" 0 p.Net.Path.src;
  Alcotest.(check int) "dst" 2 p.Net.Path.dst

(* Property: in any torus, a BFS shortest path has hops equal to the
   Manhattan distance with wraparound. *)
let prop_torus_distance =
  QCheck.Test.make ~name:"torus shortest path = wrapped Manhattan distance"
    ~count:100
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let t = Net.Builders.torus ~rows:8 ~cols:8 ~capacity:1.0 in
      let ra, ca = Net.Builders.grid_coord ~cols:8 a in
      let rb, cb = Net.Builders.grid_coord ~cols:8 b in
      let wrap d = min d (8 - d) in
      let expected = wrap (abs (ra - rb)) + wrap (abs (ca - cb)) in
      match Routing.Shortest.shortest_path t ~src:a ~dst:b with
      | None -> false
      | Some p -> Net.Path.hops p = expected)

(* Property: the allocation-free path queries answer exactly as the
   component-set view does, on every component of the topology. *)
let prop_path_queries_match_components =
  QCheck.Test.make ~name:"uses_component/intermediate_nodes = component-set view"
    ~count:100
    QCheck.(pair (int_bound 63) (int_bound 63))
    (fun (a, b) ->
      let t = Net.Builders.torus ~rows:8 ~cols:8 ~capacity:1.0 in
      match Routing.Shortest.shortest_path t ~src:a ~dst:b with
      | None -> false
      | Some p ->
        let comps = Net.Path.components t p in
        let interior =
          match Net.Path.nodes t p with
          | [] | [ _ ] -> []
          | _ :: rest -> List.rev (List.tl (List.rev rest))
        in
        let all =
          List.init (Net.Topology.num_nodes t) (fun v -> Net.Component.Node v)
          @ List.init (Net.Topology.num_links t) (fun l -> Net.Component.Link l)
        in
        Net.Path.intermediate_nodes t p = interior
        && List.for_all
             (fun c ->
               Net.Path.uses_component t p c = Net.Component.Set.mem c comps)
             all)

(* Property: on random multigraphs (parallel links allowed), both CSR
   directions list each node's links as [out_links]/[in_links] do, in the
   same order, with [peer] the link's destination (out) or source (in).
   A second batch of [add_link]s after the first read must invalidate the
   CSR built for the first. *)
let prop_csr_matches_lists =
  let edges = QCheck.(small_list (pair small_nat small_nat)) in
  QCheck.Test.make ~name:"CSR adjacency = out_links/in_links" ~count:200
    QCheck.(triple (int_range 2 8) edges edges)
    (fun (n, first, second) ->
      let t = Net.Topology.create ~num_nodes:n in
      let add =
        List.iter (fun (a, b) ->
            let a = a mod n and b = b mod n in
            if a <> b then
              ignore (Net.Topology.add_link t ~src:a ~dst:b ~capacity:1.0))
      in
      let agrees csr links_of far =
        let { Net.Topology.off; link; peer } = csr in
        let m = Net.Topology.num_links t in
        Array.length off = n + 1
        && off.(0) = 0
        && off.(n) = m
        && Array.length link = m
        && Array.length peer = m
        && List.for_all
             (fun v ->
               let run =
                 List.init (max 0 (off.(v + 1) - off.(v))) (fun k -> off.(v) + k)
               in
               List.map (fun i -> link.(i)) run = links_of t v
               && List.for_all
                    (fun i -> peer.(i) = far (Net.Topology.link t link.(i)))
                    run)
             (List.init n Fun.id)
      in
      let both () =
        agrees (Net.Topology.out_csr t) Net.Topology.out_links (fun l ->
            l.Net.Topology.dst)
        && agrees (Net.Topology.in_csr t) Net.Topology.in_links (fun l ->
               l.Net.Topology.src)
      in
      add first;
      let before = both () in
      add second;
      before && both ())

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "net"
    [
      ( "component",
        [
          Alcotest.test_case "ordering" `Quick test_component_order;
          Alcotest.test_case "predicates" `Quick test_component_predicates;
          Alcotest.test_case "inter_card" `Quick test_component_inter_card;
        ] );
      ( "topology",
        [
          Alcotest.test_case "build" `Quick test_topology_build;
          Alcotest.test_case "adjacency" `Quick test_topology_adjacency;
          Alcotest.test_case "validation" `Quick test_topology_validation;
          QCheck_alcotest.to_alcotest prop_csr_matches_lists;
        ] );
      ( "builders",
        [
          Alcotest.test_case "torus 8x8" `Quick test_torus_shape;
          Alcotest.test_case "mesh 8x8" `Quick test_mesh_shape;
          Alcotest.test_case "small torus wrap" `Quick
            test_small_torus_no_duplicate_wrap;
          Alcotest.test_case "ring/line/star/complete" `Quick
            test_ring_line_star_complete;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "grid coords" `Quick test_grid_coords;
          Alcotest.test_case "random connected" `Quick test_random_connected;
        ] );
      ( "path",
        [
          Alcotest.test_case "make/nodes" `Quick test_path_make_and_nodes;
          Alcotest.test_case "validation" `Quick test_path_validation;
          Alcotest.test_case "components" `Quick test_path_components;
          Alcotest.test_case "uses" `Quick test_path_uses;
          Alcotest.test_case "sharing/disjoint" `Quick test_path_sharing;
          Alcotest.test_case "of_links" `Quick test_path_of_links;
        ] );
      qsuite "path-props" [ prop_torus_distance; prop_path_queries_match_components ];
    ]
