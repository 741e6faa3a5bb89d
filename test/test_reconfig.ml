(* Tests for resource reconfiguration (Section 4.4): committing a recovery
   to the network state — promotion of activated backups, teardown of
   failed channels, closure of broken backups, and re-provisioning. *)

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

let torus_ns ?(capacity = 20.0) () =
  Bcp.Netstate.create ~lambda (Net.Builders.torus ~rows:4 ~cols:4 ~capacity) ()

let primary_link c =
  Net.Component.Link
    (List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path))

let check_invariants ns =
  let topo = Bcp.Netstate.topology ns in
  let res = Bcp.Netstate.resources ns in
  let mux = Bcp.Netstate.mux ns in
  Net.Topology.iter_links topo (fun l ->
      let id = l.Net.Topology.id in
      let total = Rtchan.Resource.primary res id +. Rtchan.Resource.spare res id in
      if total > l.Net.Topology.capacity +. 1e-6 then
        Alcotest.failf "link %d over capacity" id;
      if
        Float.abs
          (Bcp.Mux.spare_requirement mux ~link:id -. Rtchan.Resource.spare res id)
        > 1e-6
      then Alcotest.failf "link %d spare out of sync" id)

let test_promotion () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let old_primary_path = c.Bcp.Dconn.primary.Rtchan.Channel.path in
  let backup_path = (List.hd c.Bcp.Dconn.backups).Bcp.Dconn.path in
  let failed = [ primary_link c ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  Alcotest.(check int) "promoted" 1 s.Bcp.Reconfig.promoted;
  Alcotest.(check int) "torn down" 1 s.Bcp.Reconfig.torn_down;
  Alcotest.(check int) "no losses" 0 s.Bcp.Reconfig.unrecovered;
  (* The connection's primary now runs on the old backup path. *)
  Alcotest.(check bool) "primary moved" true
    (c.Bcp.Dconn.primary.Rtchan.Channel.path = backup_path);
  Alcotest.(check bool) "old path released" true
    (c.Bcp.Dconn.primary.Rtchan.Channel.path <> old_primary_path);
  (* A replacement backup was provisioned, avoiding the failed link. *)
  Alcotest.(check int) "replacement added" 1 s.Bcp.Reconfig.replacements_added;
  (match Bcp.Dconn.standby_backups c with
  | [] -> Alcotest.fail "replacement standby expected"
  | nb :: _ ->
    Alcotest.(check bool) "avoids failed component" false
      (List.exists
         (fun comp -> Net.Path.uses_component (Bcp.Netstate.topology ns) nb.Bcp.Dconn.path comp)
         failed));
  Alcotest.(check (list (pair int int))) "no deficit" []
    (Bcp.Reconfig.protection_deficit ns);
  check_invariants ns

(* Components outside the topology lie on no path, in a commit as in
   [Recovery.simulate]. *)
let test_outside_components_ignored () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let failed = [ Net.Component.Link 9999; primary_link c; Net.Component.Node (-1) ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  Alcotest.(check int) "promoted" 1 s.Bcp.Reconfig.promoted;
  Alcotest.(check int) "replacement added" 1 s.Bcp.Reconfig.replacements_added;
  check_invariants ns

(* A promoted primary is the one later failures find: the connection is
   indexed on the new primary's links and no longer on the old one's. *)
let test_promoted_primary_indexed () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let old_link = primary_link c in
  let failed = [ old_link ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  ignore (Bcp.Reconfig.commit ns ~failed ~result);
  let ids comp =
    List.map (fun d -> d.Bcp.Dconn.id) (Bcp.Netstate.conns_with_primary_on ns comp)
  in
  Alcotest.(check (list int)) "not on the old primary" [] (ids old_link);
  let new_link = primary_link c in
  Alcotest.(check (list int)) "on the new primary" [ 0 ] (ids new_link);
  let again = Bcp.Recovery.simulate ns ~failed:[ new_link ] in
  Alcotest.(check int) "a second failure affects it" 1 again.Bcp.Recovery.affected

let test_unrecovered_removed () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let b = List.hd c.Bcp.Dconn.backups in
  (* Kill primary and backup: the connection cannot fast-recover and must
     be released entirely. *)
  let failed =
    [
      primary_link c;
      Net.Component.Link (List.hd (Net.Path.links b.Bcp.Dconn.path));
    ]
  in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  Alcotest.(check int) "unrecovered" 1 s.Bcp.Reconfig.unrecovered;
  Alcotest.(check int) "gone" 0 (List.length (Bcp.Netstate.dconns ns));
  let res = Bcp.Netstate.resources ns in
  Alcotest.(check (float 1e-6)) "all bandwidth released" 0.0
    (Rtchan.Resource.total_primary res +. Rtchan.Resource.total_spare res)

let test_end_node_failure_releases () =
  let ns = torus_ns () in
  let _ = establish_exn ns 0 (request 0 5) in
  let failed = [ Net.Component.Node 0 ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  Alcotest.(check int) "unrecoverable" 1 s.Bcp.Reconfig.unrecovered;
  Alcotest.(check int) "removed" 0 (List.length (Bcp.Netstate.dconns ns))

let test_broken_backups_closed () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let b = List.hd c.Bcp.Dconn.backups in
  (* Fail only the backup: nothing to recover, but reconfiguration must
     close it and provision a replacement. *)
  let failed = [ Net.Component.Link (List.hd (Net.Path.links b.Bcp.Dconn.path)) ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  Alcotest.(check int) "no primaries affected" 0 result.Bcp.Recovery.affected;
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  Alcotest.(check int) "closed" 1 s.Bcp.Reconfig.closed_backups;
  Alcotest.(check bool) "marked broken" true (b.Bcp.Dconn.state = Bcp.Dconn.Broken);
  Alcotest.(check int) "replacement" 1 s.Bcp.Reconfig.replacements_added;
  Alcotest.(check (list (pair int int))) "deficit cleared" []
    (Bcp.Reconfig.protection_deficit ns);
  check_invariants ns

let test_no_restore_option () =
  let ns = torus_ns () in
  let c = establish_exn ns 0 (request 0 5) in
  let failed = [ primary_link c ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ~restore_protection:false ns ~failed ~result in
  Alcotest.(check int) "no replacement" 0 s.Bcp.Reconfig.replacements_added;
  Alcotest.(check (list (pair int int))) "deficit visible" [ (0, 1) ]
    (Bcp.Reconfig.protection_deficit ns)

let test_replacement_impossible () =
  (* On a mesh corner pair, the only disjoint backup ran through the now-
     dead region: re-provisioning must fail gracefully. *)
  let topo = Net.Builders.mesh ~rows:2 ~cols:2 ~capacity:20.0 in
  let ns = Bcp.Netstate.create ~lambda topo () in
  let c = establish_exn ns 0 (request 0 3) in
  let failed = [ primary_link c ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  Alcotest.(check int) "promoted" 1 s.Bcp.Reconfig.promoted;
  (* 2x2 mesh has exactly two disjoint corner routes; with one dead there
     is no room for a new disjoint backup. *)
  Alcotest.(check int) "replacement failed" 1 s.Bcp.Reconfig.replacements_failed;
  Alcotest.(check (list (pair int int))) "deficit remains" [ (0, 1) ]
    (Bcp.Reconfig.protection_deficit ns)

let test_many_conns_consistency () =
  (* Establish a batch, fail a node, commit, and verify global invariants
     plus that a second failure round still works on the reconfigured
     network. *)
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:30.0 in
  let ns = Bcp.Netstate.create ~lambda topo () in
  let rng = Sim.Prng.create 9 in
  List.iteri
    (fun i (r : Workload.Generator.request) ->
      ignore
        (Bcp.Establish.establish ns ~conn_id:i
           (request ~mux_degree:3 r.Workload.Generator.src r.Workload.Generator.dst)))
    (List.filteri (fun i _ -> i < 120)
       (Workload.Generator.shuffled rng (Workload.Generator.all_pairs topo)));
  let before = List.length (Bcp.Netstate.dconns ns) in
  let failed = [ Net.Component.Node 5 ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let s = Bcp.Reconfig.commit ns ~failed ~result in
  check_invariants ns;
  Alcotest.(check int) "conn count consistent"
    (before - s.Bcp.Reconfig.unrecovered)
    (List.length (Bcp.Netstate.dconns ns));
  (* Promoted connections have live primaries avoiding the dead node. *)
  List.iter
    (fun conn ->
      Alcotest.(check bool) "primary avoids dead node" false
        (Net.Path.uses_node topo conn.Bcp.Dconn.primary.Rtchan.Channel.path 5))
    (Bcp.Netstate.dconns ns);
  (* The network is still operational: run another recovery round. *)
  let result2 = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Node 10 ] in
  Alcotest.(check bool) "second round sane" true
    (result2.Bcp.Recovery.recovered <= result2.Bcp.Recovery.affected)

let () =
  Alcotest.run "reconfig"
    [
      ( "commit",
        [
          Alcotest.test_case "promotion" `Quick test_promotion;
          Alcotest.test_case "unrecovered removed" `Quick test_unrecovered_removed;
          Alcotest.test_case "end-node release" `Quick test_end_node_failure_releases;
          Alcotest.test_case "broken backups closed" `Quick
            test_broken_backups_closed;
          Alcotest.test_case "no-restore option" `Quick test_no_restore_option;
          Alcotest.test_case "replacement impossible" `Quick
            test_replacement_impossible;
          Alcotest.test_case "batch consistency" `Quick test_many_conns_consistency;
          Alcotest.test_case "outside components ignored" `Quick
            test_outside_components_ignored;
          Alcotest.test_case "promoted primary indexed" `Quick
            test_promoted_primary_indexed;
        ] );
    ]
