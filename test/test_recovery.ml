(* Tests for the static failure-recovery engine (R_fast, Tables 1-3):
   backup selection, spare-pool contention, multiplexing failures,
   end-node exclusion, activation ordering. *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0
let lambda = 1e-4

let request ?(backups = 1) ?(mux_degree = 1) src dst =
  {
    Bcp.Establish.src;
    dst;
    traffic = bw1;
    qos = Rtchan.Qos.default;
    backups;
    mux_degree;
  }

let establish_exn ns id req =
  match Bcp.Establish.establish ns ~conn_id:id req with
  | Ok c -> c
  | Error e -> Alcotest.failf "establish %d: %a" id Bcp.Establish.pp_reject e

let torus_ns ?(capacity = 10.0) () =
  Bcp.Netstate.create ~lambda (Net.Builders.torus ~rows:4 ~cols:4 ~capacity) ()

let test_single_failure_recovers () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let link = List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) in
  let r = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link link ] in
  Alcotest.(check int) "one affected" 1 r.Bcp.Recovery.affected;
  Alcotest.(check int) "recovered" 1 r.Bcp.Recovery.recovered;
  Alcotest.(check (float 1e-9)) "R_fast 100" 100.0 (Bcp.Recovery.r_fast r);
  (match r.Bcp.Recovery.outcomes with
  | [ (0, Bcp.Recovery.Recovered 1) ] -> ()
  | _ -> Alcotest.fail "expected conn 0 recovered via serial 1")

let test_unaffected_conn_ignored () =
  let ns = torus_ns () in
  let c0 = establish_exn ns 0 (request 0 5) in
  let _c1 = establish_exn ns 1 (request 10 15) in
  let link = List.hd (Net.Path.links c0.Bcp.Dconn.primary.Rtchan.Channel.path) in
  (* c1's primary is far away in the torus: only c0 should be affected.  If
     routing happens to overlap, this test is vacuous, so assert via the
     affected id instead. *)
  let r = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link link ] in
  List.iter
    (fun (id, _) -> Alcotest.(check int) "only conn 0" 0 id)
    r.Bcp.Recovery.outcomes

let test_end_node_failure_excluded () =
  let ns = torus_ns () in
  let _c = establish_exn ns 0 (request 0 5) in
  let r = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Node 0 ] in
  Alcotest.(check int) "excluded" 1 r.Bcp.Recovery.excluded;
  Alcotest.(check int) "not considered" 0 r.Bcp.Recovery.affected

let test_both_channels_hit () =
  (* Fail one component of the primary AND one of the backup: no healthy
     backup remains. *)
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let b = List.hd c.Bcp.Dconn.backups in
  let pl = List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) in
  let bl = List.hd (Net.Path.links b.Bcp.Dconn.path) in
  let r =
    Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link pl; Net.Component.Link bl ]
  in
  Alcotest.(check int) "affected" 1 r.Bcp.Recovery.affected;
  Alcotest.(check int) "no recovery" 0 r.Bcp.Recovery.recovered;
  Alcotest.(check int) "no healthy backup" 1 r.Bcp.Recovery.no_healthy_backup

let test_second_backup_used () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request ~backups:2 0 5) in
  let b1 = List.hd c.Bcp.Dconn.backups in
  let pl = List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) in
  let b1l = List.hd (Net.Path.links b1.Bcp.Dconn.path) in
  let r =
    Bcp.Recovery.simulate ns
      ~failed:[ Net.Component.Link pl; Net.Component.Link b1l ]
  in
  (match r.Bcp.Recovery.outcomes with
  | [ (0, Bcp.Recovery.Recovered 2) ] -> ()
  | _ -> Alcotest.fail "expected recovery via serial 2")

let test_simulate_does_not_mutate () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let link = List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) in
  let spare_before = Rtchan.Resource.total_spare (Bcp.Netstate.resources ns) in
  let r1 = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link link ] in
  let r2 = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link link ] in
  Alcotest.(check int) "same result" r1.Bcp.Recovery.recovered r2.Bcp.Recovery.recovered;
  Alcotest.(check (float 1e-9)) "spare untouched" spare_before
    (Rtchan.Resource.total_spare (Bcp.Netstate.resources ns));
  Alcotest.(check bool) "backup still standby" true
    ((List.hd c.Bcp.Dconn.backups).Bcp.Dconn.state = Bcp.Dconn.Standby)

(* A hand-built bottleneck network where every route is forced:

     S1 --> D1          (primary of conn A)
     S2 --> D2          (primary of conn B)
     S1 --> X, S2 --> X
     X  --> Y           (the shared bottleneck)
     Y  --> D1, Y --> D2

   The only disjoint backup for A is S1-X-Y-D1, and for B S2-X-Y-D2; both
   traverse X->Y.  The primaries are fully disjoint, so at any positive
   multiplexing degree the two backups share one bandwidth unit of spare
   on X->Y. *)
let bottleneck ~policy =
  let topo = Net.Topology.create ~num_nodes:6 in
  let s1 = 0 and s2 = 1 and d1 = 2 and d2 = 3 and x = 4 and y = 5 in
  let add a b = ignore (Net.Topology.add_link topo ~src:a ~dst:b ~capacity:10.0) in
  add s1 d1;
  add s2 d2;
  add s1 x;
  add s2 x;
  add x y;
  add y d1;
  add y d2;
  let ns = Bcp.Netstate.create ~lambda ~policy topo () in
  (topo, ns, (s1, s2, d1, d2, x, y))

let xy_link topo = Option.get (Net.Topology.find_link topo ~src:4 ~dst:5)

let primary_link c =
  Net.Component.Link
    (List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path))

let test_mux_failure_under_contention () =
  let topo, ns, (s1, s2, d1, d2, _, _) = bottleneck ~policy:Bcp.Netstate.Multiplexed in
  let a = establish_exn ns 0 (request ~mux_degree:1 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:1 s2 d2) in
  (* Disjoint primaries at degree 1: the backups multiplex on X->Y. *)
  Alcotest.(check (float 1e-9)) "bottleneck spare = 1" 1.0
    (Rtchan.Resource.spare (Bcp.Netstate.resources ns) (xy_link topo));
  let r = Bcp.Recovery.simulate ns ~failed:[ primary_link a; primary_link b ] in
  Alcotest.(check int) "affected" 2 r.Bcp.Recovery.affected;
  Alcotest.(check int) "one recovers" 1 r.Bcp.Recovery.recovered;
  Alcotest.(check int) "one mux failure" 1 r.Bcp.Recovery.mux_failures;
  (* By_id order: conn 0 wins the pool. *)
  (match List.assoc_opt 0 r.Bcp.Recovery.outcomes with
  | Some (Bcp.Recovery.Recovered 1) -> ()
  | _ -> Alcotest.fail "conn 0 should win in id order");
  Alcotest.(check bool) "conn 1 mux-failed" true
    (List.assoc_opt 1 r.Bcp.Recovery.outcomes = Some Bcp.Recovery.Mux_failure)

let test_mux_zero_avoids_contention () =
  (* With multiplexing disabled the bottleneck reserves 2 units and both
     connections recover. *)
  let topo, ns, (s1, s2, d1, d2, _, _) = bottleneck ~policy:Bcp.Netstate.Multiplexed in
  let a = establish_exn ns 0 (request ~mux_degree:0 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:0 s2 d2) in
  Alcotest.(check (float 1e-9)) "bottleneck spare = 2" 2.0
    (Rtchan.Resource.spare (Bcp.Netstate.resources ns) (xy_link topo));
  let r = Bcp.Recovery.simulate ns ~failed:[ primary_link a; primary_link b ] in
  Alcotest.(check int) "both recover" 2 r.Bcp.Recovery.recovered

let test_priority_order_protects_small_nu () =
  let _, ns, (s1, s2, d1, d2, _, _) = bottleneck ~policy:Bcp.Netstate.Multiplexed in
  (* Low-priority (degree 6) connection has the smaller id, so it would
     win under By_id; By_priority must hand the pool to the degree-5 one. *)
  let a = establish_exn ns 0 (request ~mux_degree:6 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:5 s2 d2) in
  let failed = [ primary_link a; primary_link b ] in
  let by_id = Bcp.Recovery.simulate ns ~failed in
  (match List.assoc_opt 0 by_id.Bcp.Recovery.outcomes with
  | Some (Bcp.Recovery.Recovered _) -> ()
  | _ -> Alcotest.fail "id order lets conn 0 win");
  let by_prio = Bcp.Recovery.simulate ~order:Bcp.Recovery.By_priority ns ~failed in
  (match List.assoc_opt 1 by_prio.Bcp.Recovery.outcomes with
  | Some (Bcp.Recovery.Recovered _) -> ()
  | _ -> Alcotest.fail "priority order must let the small-nu conn win");
  Alcotest.(check (float 1e-9)) "degree 5 protected" 100.0
    (Bcp.Recovery.r_fast_of_degree by_prio 5);
  Alcotest.(check (float 1e-9)) "degree 6 sacrificed" 0.0
    (Bcp.Recovery.r_fast_of_degree by_prio 6)

let test_per_degree_partition () =
  let ns = torus_ns ~capacity:50.0 () in
  let _ = establish_exn ns 0 (request ~mux_degree:1 0 5) in
  let _ = establish_exn ns 1 (request ~mux_degree:6 1 6) in
  (* Fail a node both primaries traverse... instead fail one component of
     each primary. *)
  let c0 = Option.get (Bcp.Netstate.find ns 0) in
  let c1 = Option.get (Bcp.Netstate.find ns 1) in
  let failed =
    [
      Net.Component.Link (List.hd (Net.Path.links c0.Bcp.Dconn.primary.Rtchan.Channel.path));
      Net.Component.Link (List.hd (Net.Path.links c1.Bcp.Dconn.primary.Rtchan.Channel.path));
    ]
  in
  let r = Bcp.Recovery.simulate ns ~failed in
  let total_aff = List.fold_left (fun acc (_, (a, _)) -> acc + a) 0 r.Bcp.Recovery.per_degree in
  Alcotest.(check int) "degrees partition affected" r.Bcp.Recovery.affected total_aff;
  Alcotest.(check bool) "degree 1 present" true
    (List.mem_assoc 1 r.Bcp.Recovery.per_degree);
  Alcotest.(check bool) "degree 6 present" true
    (List.mem_assoc 6 r.Bcp.Recovery.per_degree)

let test_affected_conns_dedup () =
  (* A node failure hits several links of the same primary: the connection
     must be counted once. *)
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 2) in
  let mid =
    List.nth (Net.Path.nodes (Bcp.Netstate.topology ns) c.Bcp.Dconn.primary.Rtchan.Channel.path) 1
  in
  let conns, excluded =
    Bcp.Recovery.affected_conns ns
      ~failed:
        [ Net.Component.Node mid; Net.Component.Link (List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path)) ]
  in
  Alcotest.(check int) "once" 1 (List.length conns);
  Alcotest.(check int) "none excluded" 0 excluded

let test_brute_force_pool () =
  (* Under brute-force policy the per-link pool is the configured constant:
     a 1-unit uniform pool admits exactly one of the two activations. *)
  let _, ns, (s1, s2, d1, d2, _, _) = bottleneck ~policy:(Bcp.Netstate.Brute_force 1.0) in
  let a = establish_exn ns 0 (request ~mux_degree:6 s1 d1) in
  let b = establish_exn ns 1 (request ~mux_degree:6 s2 d2) in
  let r = Bcp.Recovery.simulate ns ~failed:[ primary_link a; primary_link b ] in
  Alcotest.(check int) "pool of 1 admits one" 1 r.Bcp.Recovery.recovered;
  Alcotest.(check int) "other mux-fails" 1 r.Bcp.Recovery.mux_failures

let test_r_fast_empty () =
  let ns = torus_ns () in
  let r = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link 0 ] in
  Alcotest.(check (float 1e-9)) "vacuous 100" 100.0 (Bcp.Recovery.r_fast r)

(* Property: on a lightly loaded torus with mux=1, any single component
   failure is fully recovered (the paper's guarantee). *)
let prop_mux1_single_failure_guarantee =
  QCheck.Test.make ~name:"mux=1 guarantees recovery from any single failure"
    ~count:25
    QCheck.(int_bound 1000)
    (fun seed ->
      let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
      let ns = Bcp.Netstate.create ~lambda topo () in
      let rng = Sim.Prng.create seed in
      let reqs =
        List.filteri (fun i _ -> i < 60)
          (Workload.Generator.shuffled rng (Workload.Generator.all_pairs topo))
      in
      List.iteri
        (fun i (r : Workload.Generator.request) ->
          ignore
            (Bcp.Establish.establish ns ~conn_id:i
               (request ~backups:r.Workload.Generator.backups
                  ~mux_degree:1 r.Workload.Generator.src r.Workload.Generator.dst)))
        reqs;
      let all_ok = ref true in
      (* every single link failure *)
      Net.Topology.iter_links topo (fun l ->
          let r =
            Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link l.Net.Topology.id ]
          in
          if r.Bcp.Recovery.recovered <> r.Bcp.Recovery.affected then all_ok := false);
      (* every single node failure *)
      for v = 0 to Net.Topology.num_nodes topo - 1 do
        let r = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Node v ] in
        if r.Bcp.Recovery.recovered <> r.Bcp.Recovery.affected then all_ok := false
      done;
      !all_ok)

(* ---------- the overlay/mask engine against its reference twin ---------- *)

(* A seeded loaded network: a 4x4 or 8x8 torus or mesh, a random set of
   connections with mux degrees 1-6 and 1-2 backups each, and a few
   backups marked broken so the standby filter is exercised. *)
let random_network seed =
  let rng = Sim.Prng.create seed in
  let size = if Sim.Prng.bool rng then 4 else 8 in
  let capacity = [| 6.0; 12.0; 30.0 |].(Sim.Prng.int rng 3) in
  let topo =
    if Sim.Prng.bool rng then Net.Builders.torus ~rows:size ~cols:size ~capacity
    else Net.Builders.mesh ~rows:size ~cols:size ~capacity
  in
  let ns = Bcp.Netstate.create ~lambda topo () in
  let n = Net.Topology.num_nodes topo in
  for i = 0 to (4 * n) - 1 do
    let src, dst = Workload.Generator.distinct_pair rng n in
    let req =
      request
        ~backups:(1 + Sim.Prng.int rng 2)
        ~mux_degree:(1 + Sim.Prng.int rng 6)
        src dst
    in
    match Bcp.Establish.establish ns ~conn_id:i req with
    | Ok c ->
      List.iter
        (fun b -> if Sim.Prng.int rng 10 = 0 then b.Bcp.Dconn.state <- Bcp.Dconn.Broken)
        c.Bcp.Dconn.backups
    | Error _ -> ()
  done;
  (rng, ns)

(* 1-3 distinct components, links and nodes mixed. *)
let random_failure rng topo =
  let pick () =
    if Sim.Prng.int rng 3 = 0 then
      Net.Component.Node (Sim.Prng.int rng (Net.Topology.num_nodes topo))
    else Net.Component.Link (Sim.Prng.int rng (Net.Topology.num_links topo))
  in
  let rec draw k acc =
    if k = 0 then List.rev acc
    else
      let c = pick () in
      if List.exists (Net.Component.equal c) acc then draw k acc
      else draw (k - 1) (c :: acc)
  in
  draw (1 + Sim.Prng.int rng 3) []

(* [random_failure], sometimes with a repeated component and sometimes
   with one outside the topology, at either end of the list. *)
let messy_failure rng topo =
  let failed = random_failure rng topo in
  let failed =
    if Sim.Prng.int rng 3 = 0 then failed @ [ List.hd failed ] else failed
  in
  if Sim.Prng.int rng 3 = 0 then begin
    let outside =
      match Sim.Prng.int rng 4 with
      | 0 -> Net.Component.Link (Net.Topology.num_links topo + Sim.Prng.int rng 3)
      | 1 -> Net.Component.Node (Net.Topology.num_nodes topo)
      | 2 -> Net.Component.Node (-1)
      | _ -> Net.Component.Link (-1)
    in
    if Sim.Prng.bool rng then outside :: failed else failed @ [ outside ]
  end
  else failed

let ids (conns, excluded) = (List.map (fun c -> c.Bcp.Dconn.id) conns, excluded)

(* Between scenarios the network changes: a third of the scenarios are
   committed ([Reconfig.commit] promotes recovered backups to primaries,
   closes broken backups and re-provisions protection), and a quarter
   are followed by the departure of a random connection. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"simulate = reference twin (all orders)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng, ns = random_network seed in
      let topo = Bcp.Netstate.topology ns in
      List.for_all
        (fun _ ->
          let failed = messy_failure rng topo in
          let shuffle_seed = Sim.Prng.int rng 1_000_000 in
          let same order order' =
            Bcp.Recovery.simulate ~order ns ~failed
            = Recovery_ref.simulate ~order:order' ns ~failed
          in
          let ok =
            ids (Bcp.Recovery.affected_conns ns ~failed)
            = ids (Recovery_ref.affected_conns ns ~failed)
            && same Bcp.Recovery.By_id Bcp.Recovery.By_id
            && same Bcp.Recovery.By_priority Bcp.Recovery.By_priority
            && same
                 (Bcp.Recovery.Shuffled (Sim.Prng.create shuffle_seed))
                 (Bcp.Recovery.Shuffled (Sim.Prng.create shuffle_seed))
          in
          if Sim.Prng.int rng 3 = 0 then begin
            let result = Bcp.Recovery.simulate ns ~failed in
            ignore (Bcp.Reconfig.commit ns ~failed ~result)
          end;
          (if Sim.Prng.int rng 4 = 0 then
             match Bcp.Netstate.dconns ns with
             | [] -> ()
             | live ->
               let live_ids =
                 List.sort Int.compare (List.map (fun c -> c.Bcp.Dconn.id) live)
               in
               Bcp.Netstate.remove_dconn ns
                 (List.nth live_ids (Sim.Prng.int rng (List.length live_ids))));
          ok)
        (List.init 12 Fun.id))

(* ---------- per-domain scratch reuse ---------- *)

let loaded_network () = snd (random_network 4)

let single_scenarios ns =
  let topo = Bcp.Netstate.topology ns in
  List.map
    (fun sc -> sc.Failures.Scenario.components)
    (Failures.Scenario.all_single_links topo @ Failures.Scenario.all_single_nodes topo)

let test_scratch_reuse () =
  let ns = loaded_network () in
  let hit =
    List.filter
      (fun failed -> (Bcp.Recovery.simulate ns ~failed).Bcp.Recovery.affected > 0)
      (single_scenarios ns)
  in
  let a = List.nth hit 0 and b = List.nth hit 1 in
  let ra = Bcp.Recovery.simulate ns ~failed:a in
  let rb = Bcp.Recovery.simulate ns ~failed:b in
  Alcotest.(check bool) "A then B differ" true (ra <> rb);
  Alcotest.(check bool) "A again" true (Bcp.Recovery.simulate ns ~failed:a = ra)

let test_pools_unchanged_by_sweep () =
  let ns = loaded_network () in
  let before = Bcp.Netstate.spare_pool ns in
  List.iter (fun failed -> ignore (Bcp.Recovery.simulate ns ~failed)) (single_scenarios ns);
  Alcotest.(check bool) "spare pools bit-identical" true
    (Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       before (Bcp.Netstate.spare_pool ns))

let test_pool_jobs_identical () =
  let ns = loaded_network () in
  let scenarios = single_scenarios ns in
  let sweep jobs =
    Sim.Pool.set_jobs jobs;
    Fun.protect
      ~finally:(fun () -> Sim.Pool.set_jobs 1)
      (fun () -> Sim.Pool.map (fun failed -> Bcp.Recovery.simulate ns ~failed) scenarios)
  in
  let serial = sweep 1 in
  Alcotest.(check bool) "jobs 1 = jobs 2" true (serial = sweep 2);
  Alcotest.(check bool) "jobs 1 = reference" true
    (serial = List.map (fun failed -> Recovery_ref.simulate ns ~failed) scenarios)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "recovery"
    [
      ( "basic",
        [
          Alcotest.test_case "single failure recovers" `Quick
            test_single_failure_recovers;
          Alcotest.test_case "unaffected ignored" `Quick test_unaffected_conn_ignored;
          Alcotest.test_case "end-node excluded" `Quick test_end_node_failure_excluded;
          Alcotest.test_case "both channels hit" `Quick test_both_channels_hit;
          Alcotest.test_case "second backup used" `Quick test_second_backup_used;
          Alcotest.test_case "no mutation" `Quick test_simulate_does_not_mutate;
          Alcotest.test_case "r_fast vacuous" `Quick test_r_fast_empty;
        ] );
      ( "contention",
        [
          Alcotest.test_case "mux failure" `Quick test_mux_failure_under_contention;
          Alcotest.test_case "mux=0 avoids contention" `Quick
            test_mux_zero_avoids_contention;
          Alcotest.test_case "priority order" `Quick
            test_priority_order_protects_small_nu;
          Alcotest.test_case "per-degree partition" `Quick test_per_degree_partition;
          Alcotest.test_case "affected dedup" `Quick test_affected_conns_dedup;
          Alcotest.test_case "brute-force pool" `Quick test_brute_force_pool;
        ] );
      ( "scratch",
        [
          Alcotest.test_case "A, B, A" `Quick test_scratch_reuse;
          Alcotest.test_case "pools unchanged by sweep" `Quick
            test_pools_unchanged_by_sweep;
          Alcotest.test_case "pool jobs 1 = 2" `Quick test_pool_jobs_identical;
        ] );
      qsuite "props" [ prop_mux1_single_failure_guarantee; prop_matches_reference ];
    ]
