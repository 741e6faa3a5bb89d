(* Tests for the real-time channel substrate: traffic/QoS specs, per-link
   resource pools, RNMP establishment/teardown and the RMTP data plane. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Traffic ---------- *)

let test_traffic_bandwidth () =
  let t = Rtchan.Traffic.make ~max_msg_size:1000 ~max_msg_rate:125.0 () in
  check_float "1 Mbps" 1.0 (Rtchan.Traffic.bandwidth t)

let test_traffic_of_bandwidth_roundtrip () =
  let t = Rtchan.Traffic.of_bandwidth 2.5 in
  check_float "round trip" 2.5 (Rtchan.Traffic.bandwidth t)

let test_traffic_transmission_time () =
  let t = Rtchan.Traffic.make ~max_msg_size:1000 ~max_msg_rate:1.0 () in
  (* 8000 bits at 8 Mbps = 1 ms *)
  check_float "tx time" 1e-3
    (Rtchan.Traffic.message_transmission_time t ~link_capacity:8.0)

let test_traffic_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad size" true
    (raises (fun () -> ignore (Rtchan.Traffic.make ~max_msg_size:0 ~max_msg_rate:1.0 ())));
  Alcotest.(check bool) "bad rate" true
    (raises (fun () -> ignore (Rtchan.Traffic.make ~max_msg_size:1 ~max_msg_rate:0.0 ())));
  Alcotest.(check bool) "bad bw" true
    (raises (fun () -> ignore (Rtchan.Traffic.of_bandwidth 0.0)))

(* ---------- Qos ---------- *)

let test_qos_budget () =
  let q = Rtchan.Qos.make ~hop_slack:2 () in
  Alcotest.(check int) "budget" 6 (Rtchan.Qos.max_hops q ~shortest:4);
  Alcotest.(check int) "default slack" 2
    Rtchan.Qos.(default.hop_slack)

(* ---------- Resource ---------- *)

let two_link_topo () =
  let t = Net.Topology.create ~num_nodes:3 in
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:10.0);
  ignore (Net.Topology.add_link t ~src:1 ~dst:2 ~capacity:10.0);
  t

let test_resource_invariant () =
  let r = Rtchan.Resource.create (two_link_topo ()) in
  Rtchan.Resource.reserve_primary r 0 6.0;
  Rtchan.Resource.set_spare r 0 4.0;
  check_float "free" 0.0 (Rtchan.Resource.free r 0);
  Alcotest.(check bool) "no more primary" false
    (Rtchan.Resource.can_reserve_primary r 0 0.5);
  Alcotest.(check bool) "spare can't grow" false
    (Rtchan.Resource.can_set_spare r 0 4.5);
  Alcotest.(check bool) "spare can shrink" true (Rtchan.Resource.can_set_spare r 0 2.0)

let test_resource_release () =
  let r = Rtchan.Resource.create (two_link_topo ()) in
  Rtchan.Resource.reserve_primary r 0 6.0;
  Rtchan.Resource.release_primary r 0 2.0;
  check_float "primary" 4.0 (Rtchan.Resource.primary r 0);
  Alcotest.(check bool) "over-release" true
    (try Rtchan.Resource.release_primary r 0 100.0; false
     with Invalid_argument _ -> true)

let test_resource_path_atomicity () =
  let topo = two_link_topo () in
  let r = Rtchan.Resource.create topo in
  Rtchan.Resource.reserve_primary r 1 9.5;
  let p = Net.Path.make topo ~src:0 ~dst:2 ~links:[ 0; 1 ] in
  (* Link 1 lacks room: nothing at all must be reserved. *)
  Alcotest.(check bool) "rejected" false (Rtchan.Resource.reserve_primary_path r p 1.0);
  check_float "link0 untouched" 0.0 (Rtchan.Resource.primary r 0);
  Alcotest.(check bool) "accepted" true (Rtchan.Resource.reserve_primary_path r p 0.5);
  check_float "link0 reserved" 0.5 (Rtchan.Resource.primary r 0);
  Rtchan.Resource.release_primary_path r p 0.5;
  check_float "released" 0.0 (Rtchan.Resource.primary r 0)

let test_resource_aggregates () =
  let r = Rtchan.Resource.create (two_link_topo ()) in
  Rtchan.Resource.reserve_primary r 0 5.0;
  Rtchan.Resource.set_spare r 1 2.0;
  check_float "total capacity" 20.0 (Rtchan.Resource.total_capacity r);
  check_float "load %" 25.0 (Rtchan.Resource.network_load r);
  check_float "spare %" 10.0 (Rtchan.Resource.spare_fraction r)

let test_resource_float_accumulation () =
  (* 200 x 1 Mbps on a 200 Mbps link must all fit despite float rounding. *)
  let t = Net.Topology.create ~num_nodes:2 in
  ignore (Net.Topology.add_link t ~src:0 ~dst:1 ~capacity:200.0);
  let r = Rtchan.Resource.create t in
  for _ = 1 to 200 do
    Alcotest.(check bool) "fits" true (Rtchan.Resource.can_reserve_primary r 0 1.0);
    Rtchan.Resource.reserve_primary r 0 1.0
  done;
  Alcotest.(check bool) "201st rejected" false
    (Rtchan.Resource.can_reserve_primary r 0 1.0)

(* ---------- Rnmp ---------- *)

let mesh33 () = Net.Builders.mesh ~rows:3 ~cols:3 ~capacity:10.0
let bw1 = Rtchan.Traffic.of_bandwidth 1.0

let test_rnmp_establish () =
  let m = Rtchan.Rnmp.create (mesh33 ()) in
  match Rtchan.Rnmp.establish m ~src:0 ~dst:8 ~traffic:bw1 ~qos:Rtchan.Qos.default with
  | Error _ -> Alcotest.fail "establishment failed"
  | Ok ch ->
    Alcotest.(check int) "hops" 4 (Rtchan.Channel.hops ch);
    check_float "bandwidth reserved" 4.0
      (Rtchan.Resource.total_primary (Rtchan.Rnmp.resources m));
    Rtchan.Rnmp.teardown m ch;
    check_float "bandwidth released" 0.0
      (Rtchan.Resource.total_primary (Rtchan.Rnmp.resources m))

let test_rnmp_capacity_rejection () =
  let t = Net.Builders.line ~nodes:2 ~capacity:2.0 in
  let m = Rtchan.Rnmp.create t in
  let est () =
    Rtchan.Rnmp.establish m ~src:0 ~dst:1 ~traffic:bw1 ~qos:Rtchan.Qos.default
  in
  Alcotest.(check bool) "first ok" true (Result.is_ok (est ()));
  Alcotest.(check bool) "second ok" true (Result.is_ok (est ()));
  (match est () with
  | Error Rtchan.Rnmp.No_bandwidth -> ()
  | Error Rtchan.Rnmp.No_route -> Alcotest.fail "expected No_bandwidth"
  | Ok _ -> Alcotest.fail "should reject")

let test_rnmp_no_route () =
  let t = Net.Topology.create ~num_nodes:2 in
  let m = Rtchan.Rnmp.create t in
  match Rtchan.Rnmp.establish m ~src:0 ~dst:1 ~traffic:bw1 ~qos:Rtchan.Qos.default with
  | Error Rtchan.Rnmp.No_route -> ()
  | _ -> Alcotest.fail "expected No_route"

let test_rnmp_hop_slack_respected () =
  (* Saturate the direct link; with slack 2 the channel may detour. *)
  let t = Net.Builders.mesh ~rows:2 ~cols:2 ~capacity:1.0 in
  let m = Rtchan.Rnmp.create t in
  let est () =
    Rtchan.Rnmp.establish m ~src:0 ~dst:1 ~traffic:bw1 ~qos:Rtchan.Qos.default
  in
  let ch1 = Result.get_ok (est ()) in
  Alcotest.(check int) "direct" 1 (Rtchan.Channel.hops ch1);
  let ch2 = Result.get_ok (est ()) in
  Alcotest.(check int) "detour within slack" 3 (Rtchan.Channel.hops ch2)

(* ---------- Rmtp ---------- *)

let test_regulator_paces () =
  let tr = Rtchan.Traffic.make ~max_msg_size:1000 ~max_msg_rate:10.0 ~burst:1 () in
  let reg = Rtchan.Rmtp.Regulator.create tr in
  let t1 = Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0 in
  check_float "first immediate" 0.0 t1;
  let t2 = Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0 in
  check_float "second paced at 1/rate" 0.1 t2

let test_regulator_burst () =
  let tr = Rtchan.Traffic.make ~max_msg_size:1000 ~max_msg_rate:10.0 ~burst:3 () in
  let reg = Rtchan.Rmtp.Regulator.create tr in
  check_float "b1" 0.0 (Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0);
  check_float "b2" 0.0 (Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0);
  check_float "b3" 0.0 (Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0);
  Alcotest.(check bool) "fourth delayed" true
    (Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0 > 0.0)

let test_regulator_refill () =
  let tr = Rtchan.Traffic.make ~max_msg_size:1000 ~max_msg_rate:10.0 ~burst:1 () in
  let reg = Rtchan.Rmtp.Regulator.create tr in
  ignore (Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.0);
  (* After one full period the token is back. *)
  check_float "refilled" 0.2 (Rtchan.Rmtp.Regulator.eligible_at reg ~now:0.2)

let test_hop_delay_bound () =
  let hd = Rtchan.Rmtp.Hop_delay.default in
  let tr = Rtchan.Traffic.make ~max_msg_size:1000 ~max_msg_rate:125.0 () in
  let d0 = Rtchan.Rmtp.Hop_delay.forwarding_delay hd tr ~link_capacity:8.0 ~contention:0 in
  let d3 = Rtchan.Rmtp.Hop_delay.forwarding_delay hd tr ~link_capacity:8.0 ~contention:3 in
  Alcotest.(check bool) "contention increases delay" true (d3 > d0);
  check_float "tx component" 1e-3
    (d0 -. hd.Rtchan.Rmtp.Hop_delay.propagation -. hd.Rtchan.Rmtp.Hop_delay.processing)

let test_delay_test () =
  let topo = mesh33 () in
  let p = Option.get (Routing.Shortest.shortest_path topo ~src:0 ~dst:8) in
  let tr = Rtchan.Traffic.of_bandwidth 1.0 in
  let tight = Rtchan.Qos.make ~delay_bound:1e-9 ~hop_slack:2 () in
  let loose = Rtchan.Qos.make ~delay_bound:1.0 ~hop_slack:2 () in
  let none = Rtchan.Qos.make ~hop_slack:2 () in
  let hd = Rtchan.Rmtp.Hop_delay.default in
  Alcotest.(check bool) "tight fails" false
    (Rtchan.Rmtp.delay_test hd tr tight topo p ~contention:0);
  Alcotest.(check bool) "loose passes" true
    (Rtchan.Rmtp.delay_test hd tr loose topo p ~contention:0);
  Alcotest.(check bool) "no bound passes" true
    (Rtchan.Rmtp.delay_test hd tr none topo p ~contention:16)

(* ---------- property ---------- *)

let prop_establish_teardown_conserves =
  QCheck.Test.make ~name:"establish+teardown leaves reservations at zero"
    ~count:50
    QCheck.(pair (int_bound 8) (int_bound 8))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let m = Rtchan.Rnmp.create (mesh33 ()) in
      match Rtchan.Rnmp.establish m ~src:a ~dst:b ~traffic:bw1 ~qos:Rtchan.Qos.default with
      | Error _ -> false
      | Ok ch ->
        Rtchan.Rnmp.teardown m ch;
        Rtchan.Resource.total_primary (Rtchan.Rnmp.resources m) = 0.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "rtchan"
    [
      ( "traffic",
        [
          Alcotest.test_case "bandwidth" `Quick test_traffic_bandwidth;
          Alcotest.test_case "of_bandwidth" `Quick test_traffic_of_bandwidth_roundtrip;
          Alcotest.test_case "transmission time" `Quick test_traffic_transmission_time;
          Alcotest.test_case "validation" `Quick test_traffic_validation;
        ] );
      ("qos", [ Alcotest.test_case "budget" `Quick test_qos_budget ]);
      ( "resource",
        [
          Alcotest.test_case "invariant" `Quick test_resource_invariant;
          Alcotest.test_case "release" `Quick test_resource_release;
          Alcotest.test_case "path atomicity" `Quick test_resource_path_atomicity;
          Alcotest.test_case "aggregates" `Quick test_resource_aggregates;
          Alcotest.test_case "float accumulation" `Quick
            test_resource_float_accumulation;
        ] );
      ( "rnmp",
        [
          Alcotest.test_case "establish" `Quick test_rnmp_establish;
          Alcotest.test_case "capacity rejection" `Quick test_rnmp_capacity_rejection;
          Alcotest.test_case "no route" `Quick test_rnmp_no_route;
          Alcotest.test_case "hop slack detour" `Quick test_rnmp_hop_slack_respected;
        ] );
      ( "rmtp",
        [
          Alcotest.test_case "regulator paces" `Quick test_regulator_paces;
          Alcotest.test_case "regulator burst" `Quick test_regulator_burst;
          Alcotest.test_case "regulator refill" `Quick test_regulator_refill;
          Alcotest.test_case "hop delay bound" `Quick test_hop_delay_bound;
          Alcotest.test_case "delay test" `Quick test_delay_test;
        ] );
      qsuite "props" [ prop_establish_teardown_conserves ];
    ]
