(* Tests for D-connections, the central network state, and both
   establishment schemes (Sections 3.2-3.4). *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0
let lambda = 1e-4

let torus44 () = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0

let ns44 () = Bcp.Netstate.create ~lambda (torus44 ()) ()

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
  | Error e -> Alcotest.failf "establish: %a" Bcp.Establish.pp_reject e

(* ---------- Dconn ---------- *)

let test_dconn_accessors () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:2 ~mux_degree:3 0 5) in
  Alcotest.(check (float 1e-9)) "bandwidth" 1.0 (Bcp.Dconn.bandwidth c);
  Alcotest.(check int) "mux degree" 3 (Bcp.Dconn.mux_degree c ~lambda);
  Alcotest.(check int) "two backups" 2 (List.length (Bcp.Dconn.standby_backups c));
  (match Bcp.Dconn.standby_backups c with
  | b :: _ -> Alcotest.(check int) "first serial" 1 b.Bcp.Dconn.serial
  | [] -> Alcotest.fail "standby expected");
  (match
     List.find_opt (fun b -> b.Bcp.Dconn.serial > 1) (Bcp.Dconn.standby_backups c)
   with
  | Some b -> Alcotest.(check int) "after 1" 2 b.Bcp.Dconn.serial
  | None -> Alcotest.fail "second standby expected");
  Alcotest.(check bool) "find" true (Bcp.Dconn.find_backup c ~serial:2 <> None);
  Alcotest.(check bool) "absent" true (Bcp.Dconn.find_backup c ~serial:9 = None)

(* ---------- Establish (fixed scheme) ---------- *)

let test_establish_disjointness () =
  let ns = ns44 () in
  let topo = Bcp.Netstate.topology ns in
  let c = establish_exn ns 0 (request ~backups:2 0 5) in
  let paths =
    c.Bcp.Dconn.primary.Rtchan.Channel.path
    :: List.map (fun b -> b.Bcp.Dconn.path) c.Bcp.Dconn.backups
  in
  let rec pairwise = function
    | [] -> ()
    | p :: rest ->
      List.iter
        (fun q ->
          Alcotest.(check bool) "channels mutually disjoint" true
            (Net.Path.disjoint topo p q))
        rest;
      pairwise rest
  in
  pairwise paths

let test_establish_reserves_primary_and_spare () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:1 0 5) in
  let res = Bcp.Netstate.resources ns in
  let hops = Net.Path.hops c.Bcp.Dconn.primary.Rtchan.Channel.path in
  Alcotest.(check (float 1e-9)) "primary bw"
    (float_of_int hops)
    (Rtchan.Resource.total_primary res);
  Alcotest.(check bool) "spare reserved" true (Rtchan.Resource.total_spare res > 0.0);
  (* Every link of the backup carries a mux registration. *)
  let b = List.hd c.Bcp.Dconn.backups in
  List.iter
    (fun l ->
      Alcotest.(check bool) "registered" true
        (Mux_ref.mem (Bcp.Netstate.mux ns) ~link:l ~backup:b.Bcp.Dconn.bid))
    (Net.Path.links b.Bcp.Dconn.path)

let test_establish_hop_budget () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:2 0 1) in
  let shortest = 1 in
  List.iter
    (fun b ->
      Alcotest.(check bool) "backup within slack" true
        (Net.Path.hops b.Bcp.Dconn.path <= shortest + 2))
    c.Bcp.Dconn.backups

let test_establish_rollback_on_backup_failure () =
  (* On a line there is no disjoint backup: the whole request must roll
     back, leaving no reservations behind. *)
  let ns = Bcp.Netstate.create ~lambda (Net.Builders.line ~nodes:4 ~capacity:10.0) () in
  (match Bcp.Establish.establish ns ~conn_id:0 (request 0 3) with
  | Error (Bcp.Establish.Backup_rejected 1) -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Bcp.Establish.pp_reject e
  | Ok _ -> Alcotest.fail "line cannot host a disjoint backup");
  let res = Bcp.Netstate.resources ns in
  Alcotest.(check (float 1e-9)) "no primary left" 0.0 (Rtchan.Resource.total_primary res);
  Alcotest.(check (float 1e-9)) "no spare left" 0.0 (Rtchan.Resource.total_spare res);
  Alcotest.(check int) "no dconn" 0 (List.length (Bcp.Netstate.dconns ns))

let test_establish_zero_backups () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:0 0 5) in
  Alcotest.(check int) "no backups" 0 (List.length c.Bcp.Dconn.backups);
  Alcotest.(check (float 1e-9)) "no spare" 0.0
    (Rtchan.Resource.total_spare (Bcp.Netstate.resources ns))

let test_remove_dconn_releases_everything () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:2 ~mux_degree:3 0 5) in
  Bcp.Netstate.remove_dconn ns c.Bcp.Dconn.id;
  let res = Bcp.Netstate.resources ns in
  Alcotest.(check (float 1e-9)) "primary released" 0.0 (Rtchan.Resource.total_primary res);
  Alcotest.(check (float 1e-9)) "spare released" 0.0 (Rtchan.Resource.total_spare res);
  Alcotest.(check int) "gone" 0 (List.length (Bcp.Netstate.dconns ns));
  (* Idempotent. *)
  Bcp.Netstate.remove_dconn ns c.Bcp.Dconn.id

let test_spare_sharing_across_conns () =
  (* Two connections with disjoint primaries and a common backup link:
     at mux degree >= 1 the backups share the spare. *)
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:100.0 in
  let ns = Bcp.Netstate.create ~lambda topo () in
  let c1 = establish_exn ns 0 (request 0 1) in
  let c2 = establish_exn ns 1 (request 2 3) in
  ignore c1;
  ignore c2;
  let res = Bcp.Netstate.resources ns in
  let spare_links = ref 0 and spare_total = ref 0.0 in
  Net.Topology.iter_links topo (fun l ->
      let s = Rtchan.Resource.spare res l.Net.Topology.id in
      if s > 0.0 then begin
        incr spare_links;
        spare_total := !spare_total +. s
      end);
  (* With no shared links between the two backups this is trivial; the
     invariant checked here is spare-per-link <= 1 bw unit when primaries
     are disjoint (they always are for 0->1 vs 2->3 in this torus). *)
  Net.Topology.iter_links topo (fun l ->
      Alcotest.(check bool) "per-link spare <= 1" true
        (Rtchan.Resource.spare res l.Net.Topology.id <= 1.0 +. 1e-9))

let test_backups_using_index () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:1 0 5) in
  let b = List.hd c.Bcp.Dconn.backups in
  let link = List.hd (Net.Path.links b.Bcp.Dconn.path) in
  let found = Bcp.Netstate.backups_using ns (Net.Component.Link link) in
  Alcotest.(check int) "found via link" 1 (List.length found);
  let conn', b' = List.hd found in
  Alcotest.(check int) "right conn" c.Bcp.Dconn.id conn'.Bcp.Dconn.id;
  Alcotest.(check int) "right serial" b.Bcp.Dconn.serial b'.Bcp.Dconn.serial

let test_conns_with_primary_on () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request 0 5) in
  let link = List.hd (Net.Path.links c.Bcp.Dconn.primary.Rtchan.Channel.path) in
  let found = Bcp.Netstate.conns_with_primary_on ns (Net.Component.Link link) in
  Alcotest.(check int) "one" 1 (List.length found);
  Alcotest.(check int) "id" 0 (List.hd found).Bcp.Dconn.id

let test_indexes_outside_topology () =
  let ns = ns44 () in
  ignore (establish_exn ns 0 (request ~backups:1 0 5));
  List.iter
    (fun comp ->
      let name = Net.Component.to_string comp in
      Alcotest.(check int) ("no backups on " ^ name) 0
        (List.length (Bcp.Netstate.backups_using ns comp));
      Alcotest.(check int) ("no primaries on " ^ name) 0
        (List.length (Bcp.Netstate.conns_with_primary_on ns comp)))
    [
      Net.Component.Link 9999;
      Net.Component.Link (-1);
      Net.Component.Node 9999;
      Net.Component.Node (-1);
    ]

let test_add_backup_after_establishment () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:1 0 5) in
  (match Bcp.Establish.add_backup ns c ~mux_degree:3 with
  | Ok b ->
    Alcotest.(check int) "serial 2" 2 b.Bcp.Dconn.serial;
    Alcotest.(check int) "two backups" 2 (List.length c.Bcp.Dconn.backups)
  | Error e -> Alcotest.failf "add_backup: %a" Bcp.Establish.pp_reject e)

(* Backups are routed one after another, each interior-disjoint from the
   primary and the backups before it, so with no load they come out
   shortest first.  On an empty network a link's spare increment is the
   same for every link, so the spare-aware search picks the same
   lengths.  A one-hop primary has no interior node, so only the link
   ban keeps the backups off it. *)
let test_sequential_backups () =
  List.iter
    (fun (backup_routing, dst, backups) ->
      let ns = ns44 () in
      let topo = Bcp.Netstate.topology ns in
      let c =
        match
          Bcp.Establish.establish ~backup_routing ns ~conn_id:0
            (request ~backups 0 dst)
        with
        | Ok c -> c
        | Error e -> Alcotest.failf "establish: %a" Bcp.Establish.pp_reject e
      in
      let paths =
        c.Bcp.Dconn.primary.Rtchan.Channel.path
        :: List.map (fun b -> b.Bcp.Dconn.path) c.Bcp.Dconn.backups
      in
      Alcotest.(check int) "all backups routed" backups
        (List.length c.Bcp.Dconn.backups);
      List.iteri
        (fun i p ->
          List.iteri
            (fun j q ->
              if i < j then
                Alcotest.(check bool) "pairwise disjoint" true
                  (Net.Path.disjoint topo p q))
            paths)
        paths;
      let hops = List.map Net.Path.hops paths in
      Alcotest.(check (list int)) "shortest first" (List.sort Int.compare hops) hops)
    (List.concat_map
       (fun strategy ->
         List.concat_map
           (fun dst -> List.map (fun n -> (strategy, dst, n)) [ 1; 2; 3 ])
           [ 5; 1 ])
       [ Bcp.Establish.Min_hops; Bcp.Establish.Min_spare_increment ])

(* [add_backup ~avoid_components] steers clear of every listed component
   in the topology and ignores one outside it.  The node comes from the
   route taken with nothing to avoid, the link from the route taken when
   only that node is avoided. *)
let test_add_backup_avoid_components () =
  let backup_avoiding avoid_components =
    let ns = ns44 () in
    let c = establish_exn ns 0 (request ~backups:0 0 1) in
    match Bcp.Establish.add_backup ~avoid_components ns c ~mux_degree:1 with
    | Ok b -> (Bcp.Netstate.topology ns, c, b.Bcp.Dconn.path)
    | Error e -> Alcotest.failf "add_backup: %a" Bcp.Establish.pp_reject e
  in
  let topo, _, free = backup_avoiding [] in
  let node = List.nth (Net.Path.intermediate_nodes topo free) 0 in
  let _, _, around_node = backup_avoiding [ Net.Component.Node node ] in
  Alcotest.(check bool) "node avoided" false (Net.Path.uses_node topo around_node node);
  let link = List.hd (Net.Path.links around_node) in
  let avoid = [ Net.Component.Node node; Net.Component.Link link ] in
  let topo, c, p = backup_avoiding (avoid @ [ Net.Component.Link 9999 ]) in
  Alcotest.(check bool) "node still avoided" false (Net.Path.uses_node topo p node);
  Alcotest.(check bool) "link avoided" false (Net.Path.uses_link p link);
  Alcotest.(check bool) "disjoint from the primary" true
    (Net.Path.disjoint topo c.Bcp.Dconn.primary.Rtchan.Channel.path p);
  let _, _, p' = backup_avoiding avoid in
  Alcotest.(check (list int)) "outside component ignored" (Net.Path.links p')
    (Net.Path.links p)

(* ---------- achieved P_r / negotiated establishment ---------- *)

let test_achieved_pr_reasonable () =
  let ns = ns44 () in
  let c = establish_exn ns 0 (request ~backups:1 ~mux_degree:1 0 5) in
  let pr = Bcp.Establish.achieved_pr ns c in
  let topo = Bcp.Netstate.topology ns in
  let c_primary =
    Net.Component.Set.cardinal
      (Net.Path.components topo c.Bcp.Dconn.primary.Rtchan.Channel.path)
  in
  let bare = Reliability.Combinatorial.survival ~lambda ~components:c_primary in
  Alcotest.(check bool) "above bare survival" true (pr > bare);
  Alcotest.(check bool) "a probability" true (pr > 0.0 && pr <= 1.0)

let test_achieved_pr_monotone_in_backups () =
  let ns1 = ns44 () and ns2 = ns44 () in
  let c1 = establish_exn ns1 0 (request ~backups:1 ~mux_degree:1 0 5) in
  let c2 = establish_exn ns2 0 (request ~backups:2 ~mux_degree:1 0 5) in
  Alcotest.(check bool) "two backups at least as reliable" true
    (Bcp.Establish.achieved_pr ns2 c2 >= Bcp.Establish.achieved_pr ns1 c1)

let test_negotiated_meets_requirement () =
  let ns = ns44 () in
  (* Fill in some background connections so multiplexing is non-trivial. *)
  List.iteri
    (fun i (s, d) -> ignore (Bcp.Establish.establish ns ~conn_id:(100 + i) (request s d)))
    [ (1, 6); (2, 7); (8, 13); (9, 14) ];
  let pr_required = 0.9999 in
  match
    Bcp.Establish.establish_with_reliability ns ~conn_id:0 ~src:0 ~dst:5
      ~traffic:bw1 ~qos:Rtchan.Qos.default ~pr_required
  with
  | Error e -> Alcotest.failf "negotiation failed: %a" Bcp.Establish.pp_reject e
  | Ok (conn, achieved) ->
    Alcotest.(check bool) "requirement met" true (achieved >= pr_required);
    Alcotest.(check bool) "has backups" true (conn.Bcp.Dconn.backups <> []);
    Alcotest.(check bool) "consistent with live tables" true
      (Float.abs (achieved -. Bcp.Establish.achieved_pr ns conn) < 1e-12)

let test_negotiated_picks_cheapest_degree () =
  (* 0.999 is met by the bare primary: no backup should be bought at all. *)
  let ns = ns44 () in
  (match
     Bcp.Establish.establish_with_reliability ns ~conn_id:5 ~src:0 ~dst:5
       ~traffic:bw1 ~qos:Rtchan.Qos.default ~pr_required:0.999
   with
  | Error e -> Alcotest.failf "negotiation failed: %a" Bcp.Establish.pp_reject e
  | Ok (conn, _) ->
    Alcotest.(check int) "no backup needed" 0 (List.length conn.Bcp.Dconn.backups));
  (* 0.9999 exceeds bare primary survival but a large (cheap) ν suffices
     when the network is idle: the chosen ν must not be the most
     protective/expensive ν = λ. *)
  match
    Bcp.Establish.establish_with_reliability ns ~conn_id:0 ~src:1 ~dst:6
      ~traffic:bw1 ~qos:Rtchan.Qos.default ~pr_required:0.9999
  with
  | Error e -> Alcotest.failf "negotiation failed: %a" Bcp.Establish.pp_reject e
  | Ok (conn, _) ->
    let b = List.hd conn.Bcp.Dconn.backups in
    Alcotest.(check bool) "large nu chosen" true (b.Bcp.Dconn.nu > lambda)

let test_offered_scheme () =
  (* Section 3.4, scheme 1: the client gets the resulting P_r back and may
     reject the offer. *)
  let ns = ns44 () in
  match
    Bcp.Establish.establish_offered ns ~conn_id:0
      (request ~backups:1 ~mux_degree:3 0 5)
  with
  | Error e -> Alcotest.failf "offer failed: %a" Bcp.Establish.pp_reject e
  | Ok (conn, offered) ->
    Alcotest.(check bool) "offer is a probability" true
      (offered > 0.0 && offered <= 1.0);
    Alcotest.(check (float 1e-15)) "offer = achieved"
      (Bcp.Establish.achieved_pr ns conn)
      offered;
    (* Client rejects: everything is released. *)
    Bcp.Netstate.remove_dconn ns conn.Bcp.Dconn.id;
    Alcotest.(check (float 1e-9)) "rolled back" 0.0
      (Rtchan.Resource.total_primary (Bcp.Netstate.resources ns))

let test_negotiated_unreachable () =
  let ns = ns44 () in
  match
    Bcp.Establish.establish_with_reliability ~max_backups:1 ns ~conn_id:0
      ~src:0 ~dst:5 ~traffic:bw1 ~qos:Rtchan.Qos.default ~pr_required:1.0
  with
  | Error (Bcp.Establish.Reliability_unreachable best) ->
    Alcotest.(check bool) "best below 1" true (best < 1.0);
    (* Rolled back cleanly. *)
    Alcotest.(check (float 1e-9)) "no residue" 0.0
      (Rtchan.Resource.total_primary (Bcp.Netstate.resources ns))
  | Error e -> Alcotest.failf "unexpected: %a" Bcp.Establish.pp_reject e
  | Ok _ -> Alcotest.fail "P_r = 1.0 must be unreachable"

(* ---------- brute-force policy ---------- *)

let test_brute_force_policy () =
  let topo = torus44 () in
  let ns = Bcp.Netstate.create ~lambda ~policy:(Bcp.Netstate.Brute_force 2.0) topo () in
  let res = Bcp.Netstate.resources ns in
  Net.Topology.iter_links topo (fun l ->
      Alcotest.(check (float 1e-9)) "uniform spare" 2.0
        (Rtchan.Resource.spare res l.Net.Topology.id));
  let c = establish_exn ns 0 (request ~backups:1 0 5) in
  ignore c;
  (* Spare unchanged by establishment under brute force. *)
  Net.Topology.iter_links topo (fun l ->
      Alcotest.(check (float 1e-9)) "still uniform" 2.0
        (Rtchan.Resource.spare res l.Net.Topology.id))

(* ---------- property ---------- *)

let prop_establish_remove_conserves =
  QCheck.Test.make ~name:"establish + remove leaves no reservations" ~count:40
    QCheck.(pair (int_bound 15) (int_bound 15))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let ns = ns44 () in
      match Bcp.Establish.establish ns ~conn_id:0 (request ~backups:2 a b) with
      | Error _ -> QCheck.assume_fail ()
      | Ok c ->
        Bcp.Netstate.remove_dconn ns c.Bcp.Dconn.id;
        let res = Bcp.Netstate.resources ns in
        Rtchan.Resource.total_primary res = 0.0
        && Rtchan.Resource.total_spare res = 0.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "bcp-establish"
    [
      ("dconn", [ Alcotest.test_case "accessors" `Quick test_dconn_accessors ]);
      ( "establish",
        [
          Alcotest.test_case "disjointness" `Quick test_establish_disjointness;
          Alcotest.test_case "reservations" `Quick
            test_establish_reserves_primary_and_spare;
          Alcotest.test_case "hop budget" `Quick test_establish_hop_budget;
          Alcotest.test_case "rollback" `Quick
            test_establish_rollback_on_backup_failure;
          Alcotest.test_case "zero backups" `Quick test_establish_zero_backups;
          Alcotest.test_case "remove releases" `Quick
            test_remove_dconn_releases_everything;
          Alcotest.test_case "spare sharing" `Quick test_spare_sharing_across_conns;
          Alcotest.test_case "backups_using" `Quick test_backups_using_index;
          Alcotest.test_case "conns_with_primary_on" `Quick
            test_conns_with_primary_on;
          Alcotest.test_case "indexes outside the topology" `Quick
            test_indexes_outside_topology;
          Alcotest.test_case "add_backup" `Quick test_add_backup_after_establishment;
          Alcotest.test_case "sequential backups" `Quick test_sequential_backups;
          Alcotest.test_case "add_backup avoids components" `Quick
            test_add_backup_avoid_components;
        ] );
      ( "reliability-negotiation",
        [
          Alcotest.test_case "achieved P_r sane" `Quick test_achieved_pr_reasonable;
          Alcotest.test_case "more backups help" `Quick
            test_achieved_pr_monotone_in_backups;
          Alcotest.test_case "meets requirement" `Quick
            test_negotiated_meets_requirement;
          Alcotest.test_case "picks cheapest degree" `Quick
            test_negotiated_picks_cheapest_degree;
          Alcotest.test_case "offered scheme" `Quick test_offered_scheme;
          Alcotest.test_case "unreachable" `Quick test_negotiated_unreachable;
        ] );
      ( "brute-force",
        [ Alcotest.test_case "uniform spare" `Quick test_brute_force_policy ] );
      qsuite "props" [ prop_establish_remove_conserves ];
    ]
