(* End-to-end integration tests: the whole pipeline — workload generation,
   D-connection establishment with backup multiplexing, failure injection,
   static R_fast analysis, and the event-driven protocol — exercised
   together on small networks, checking the paper's headline invariants. *)

let lambda = 1e-4

let build ~topo ~mux_degree ~backups ~count ~seed =
  let ns = Bcp.Netstate.create ~lambda topo () in
  let rng = Sim.Prng.create seed in
  let reqs =
    List.filteri (fun i _ -> i < count)
      (Workload.Generator.shuffled rng
         (Workload.Generator.all_pairs ~backups ~mux_degree topo))
  in
  let ok = ref 0 in
  List.iteri
    (fun i (r : Workload.Generator.request) ->
      match
        Bcp.Establish.establish ns ~conn_id:i r
      with
      | Ok _ -> incr ok
      | Error _ -> ())
    reqs;
  (ns, !ok)

(* Invariant: on every link, primary + spare <= capacity, and the spare
   equals the mux table's requirement. *)
let check_resource_invariants ns =
  let topo = Bcp.Netstate.topology ns in
  let res = Bcp.Netstate.resources ns in
  let mux = Bcp.Netstate.mux ns in
  Net.Topology.iter_links topo (fun l ->
      let id = l.Net.Topology.id in
      let total = Rtchan.Resource.primary res id +. Rtchan.Resource.spare res id in
      if total > l.Net.Topology.capacity +. 1e-6 then
        Alcotest.failf "link %d over capacity: %.3f > %.3f" id total
          l.Net.Topology.capacity;
      let req = Bcp.Mux.spare_requirement mux ~link:id in
      if Float.abs (req -. Rtchan.Resource.spare res id) > 1e-6 then
        Alcotest.failf "link %d spare %.3f != requirement %.3f" id
          (Rtchan.Resource.spare res id)
          req)

let test_invariants_after_establishment () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
  let ns, ok = build ~topo ~mux_degree:3 ~backups:1 ~count:240 ~seed:1 in
  Alcotest.(check bool) "most established" true (ok > 200);
  check_resource_invariants ns

let test_invariants_with_double_backups () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:30.0 in
  let ns, _ = build ~topo ~mux_degree:5 ~backups:2 ~count:150 ~seed:2 in
  check_resource_invariants ns

let protocol_recovered_count ns link =
  let sim = Bcp.Simnet.create ns in
  Bcp.Simnet.fail_link sim ~at:0.01 link;
  Bcp.Simnet.run ~until:0.4 sim;
  Bcp.Simnet.finalize sim;
  List.length
    (List.filter
       (fun r ->
         (not r.Bcp.Node.excluded) && r.Bcp.Node.recovered_serial <> None)
       (Bcp.Simnet.records sim))

let test_static_and_protocol_agree () =
  (* At mux=1 a single failure never contends for spare, so the static
     engine and the full protocol must recover exactly the same (full)
     set of connections. *)
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
  let ns, _ = build ~topo ~mux_degree:1 ~backups:1 ~count:120 ~seed:3 in
  List.iter
    (fun link ->
      let static = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link link ] in
      Alcotest.(check int)
        (Printf.sprintf "link %d: static recovers all" link)
        static.Bcp.Recovery.affected static.Bcp.Recovery.recovered;
      Alcotest.(check int)
        (Printf.sprintf "link %d: protocol matches" link)
        static.Bcp.Recovery.recovered
        (protocol_recovered_count ns link))
    [ 0; 7; 19; 33; 60 ]

let test_static_and_protocol_close_under_contention () =
  (* At mux=6 spare pools are tight: activation order (message timing vs
     connection id) may change who wins a contended pool, but the number
     of winners can differ only by the races actually present.  Require
     agreement within 10% of the affected count. *)
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
  let ns, _ = build ~topo ~mux_degree:6 ~backups:1 ~count:120 ~seed:3 in
  List.iter
    (fun link ->
      let static = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link link ] in
      let proto = protocol_recovered_count ns link in
      let slack = 1 + (static.Bcp.Recovery.affected / 10) in
      if abs (static.Bcp.Recovery.recovered - proto) > slack then
        Alcotest.failf "link %d: static %d vs protocol %d (slack %d)" link
          static.Bcp.Recovery.recovered proto slack)
    [ 0; 7; 19; 33; 60 ]

let test_mesh_pipeline () =
  let topo = Net.Builders.mesh ~rows:4 ~cols:4 ~capacity:30.0 in
  let ns, ok = build ~topo ~mux_degree:3 ~backups:1 ~count:240 ~seed:4 in
  (* Corner pairs in a mesh only admit one disjoint backup; most requests
     must still succeed. *)
  Alcotest.(check bool) "mesh mostly establishes" true (ok > 180);
  check_resource_invariants ns;
  let m = Eval.Rfast.measure ns Eval.Rfast.Single_link in
  Alcotest.(check bool) "R_fast high at mux=3" true (Eval.Rfast.r_fast m > 95.0)

let test_spare_decreases_with_degree () =
  (* Figure 9's monotonicity on a small torus. *)
  let spare_at degree =
    let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
    let ns, _ = build ~topo ~mux_degree:degree ~backups:1 ~count:240 ~seed:5 in
    Rtchan.Resource.spare_fraction (Bcp.Netstate.resources ns)
  in
  let s0 = spare_at 0 and s1 = spare_at 1 and s3 = spare_at 3 and s6 = spare_at 6 in
  Alcotest.(check bool) "0 > 1" true (s0 > s1);
  Alcotest.(check bool) "1 > 3" true (s1 > s3);
  Alcotest.(check bool) "3 > 6" true (s3 > s6);
  Alcotest.(check bool) "all positive" true (s6 > 0.0)

let test_rfast_decreases_with_degree () =
  (* Table 1's monotonicity: more multiplexing, less coverage under double
     failures. *)
  let rfast_at degree =
    let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
    let ns, _ = build ~topo ~mux_degree:degree ~backups:1 ~count:240 ~seed:6 in
    Eval.Rfast.r_fast (Eval.Rfast.measure ns (Eval.Rfast.Double_node (Some 60)))
  in
  let r1 = rfast_at 1 and r6 = rfast_at 6 in
  Alcotest.(check bool) "mux=1 beats mux=6 under double faults" true (r1 >= r6)

let test_teardown_all_returns_to_empty () =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
  let ns, _ = build ~topo ~mux_degree:3 ~backups:2 ~count:100 ~seed:7 in
  List.iter
    (fun c -> Bcp.Netstate.remove_dconn ns c.Bcp.Dconn.id)
    (Bcp.Netstate.dconns ns);
  let res = Bcp.Netstate.resources ns in
  Alcotest.(check (float 1e-6)) "no primary" 0.0 (Rtchan.Resource.total_primary res);
  Alcotest.(check (float 1e-6)) "no spare" 0.0 (Rtchan.Resource.total_spare res);
  Alcotest.(check int) "no conns" 0 (List.length (Bcp.Netstate.dconns ns));
  let mux = Bcp.Netstate.mux ns in
  Net.Topology.iter_links topo (fun l ->
      Alcotest.(check int) "mux tables empty" 0
        (Bcp.Mux.count_on mux ~link:l.Net.Topology.id))

let test_determinism () =
  (* Identical seeds give identical networks and identical R_fast. *)
  let run () =
    let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
    let ns, _ = build ~topo ~mux_degree:5 ~backups:1 ~count:200 ~seed:11 in
    let m = Eval.Rfast.measure ns Eval.Rfast.Single_node in
    (Rtchan.Resource.spare_fraction (Bcp.Netstate.resources ns), Eval.Rfast.r_fast m)
  in
  let s1, r1 = run () in
  let s2, r2 = run () in
  Alcotest.(check (float 0.0)) "spare identical" s1 s2;
  Alcotest.(check (float 0.0)) "rfast identical" r1 r2

let test_mux1_no_multiplexing_failures_single_faults () =
  (* The headline guarantee on the mesh as well. *)
  let topo = Net.Builders.mesh ~rows:4 ~cols:4 ~capacity:40.0 in
  let ns, _ = build ~topo ~mux_degree:1 ~backups:1 ~count:240 ~seed:12 in
  let m_link = Eval.Rfast.measure ns Eval.Rfast.Single_link in
  Alcotest.(check int) "no mux failures" 0 m_link.Eval.Rfast.mux_failures;
  let m_node = Eval.Rfast.measure ns Eval.Rfast.Single_node in
  Alcotest.(check int) "no mux failures (nodes)" 0 m_node.Eval.Rfast.mux_failures

let () =
  Alcotest.run "integration"
    [
      ( "invariants",
        [
          Alcotest.test_case "capacity & spare" `Quick
            test_invariants_after_establishment;
          Alcotest.test_case "double backups" `Quick
            test_invariants_with_double_backups;
          Alcotest.test_case "teardown to empty" `Quick
            test_teardown_all_returns_to_empty;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "paper-shape",
        [
          Alcotest.test_case "static = protocol" `Quick
            test_static_and_protocol_agree;
          Alcotest.test_case "static ~ protocol (contended)" `Quick
            test_static_and_protocol_close_under_contention;
          Alcotest.test_case "mesh pipeline" `Quick test_mesh_pipeline;
          Alcotest.test_case "spare monotone in degree" `Quick
            test_spare_decreases_with_degree;
          Alcotest.test_case "rfast monotone in degree" `Quick
            test_rfast_decreases_with_degree;
          Alcotest.test_case "mux=1 guarantee (mesh)" `Quick
            test_mux1_no_multiplexing_failures_single_faults;
        ] );
    ]
