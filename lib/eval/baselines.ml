type comparison = {
  model : Rfast.model;
  bcp_fast : float;
  bcp_total : float;
  reactive : float;
  bcp_spare : float;
  reactive_spare : float;
}

let scenarios_of ~seed ns model =
  let topo = Bcp.Netstate.topology ns in
  match model with
  | Rfast.Single_link -> Failures.Scenario.all_single_links topo
  | Rfast.Single_node -> Failures.Scenario.all_single_nodes topo
  | Rfast.Double_node None -> Failures.Scenario.all_double_nodes topo
  | Rfast.Double_node (Some n) ->
    Failures.Scenario.sampled_double_nodes (Sim.Prng.create seed) topo ~count:n

let failed_components sc = sc.Failures.Scenario.components

(* Try to route a replacement channel for [conn] on the surviving
   capacity in [res], avoiding [failed]; reserve it if found. *)
let reroute ns res ~failed conn =
  let topo = Bcp.Netstate.topology ns in
  let bw = Bcp.Dconn.bandwidth conn in
  let link_ok id =
    (not (List.mem (Net.Component.Link id) failed))
    && Rtchan.Resource.can_reserve_primary res id bw
  in
  let node_ok v = not (List.mem (Net.Component.Node v) failed) in
  match
    Routing.Shortest.shortest_hops topo ~src:conn.Bcp.Dconn.src
      ~dst:conn.Bcp.Dconn.dst
  with
  | None -> false
  | Some shortest ->
    let budget = Rtchan.Qos.max_hops conn.Bcp.Dconn.qos ~shortest in
    (match
       Routing.Shortest.shortest_path ~link_ok ~node_ok ~max_hops:budget topo
         ~src:conn.Bcp.Dconn.src ~dst:conn.Bcp.Dconn.dst
     with
    | None -> false
    | Some p -> Rtchan.Resource.reserve_primary_path res p bw)

(* How many of [conns] re-route around [failed].  Their reservations are
   reclaimed before re-routing (soft-state teardown happens first in any
   reactive scheme), all on a copy of the network's pools, so the
   network is left as it was. *)
let reroute_all ns ~failed conns =
  let res = Rtchan.Resource.copy (Bcp.Netstate.resources ns) in
  List.iter
    (fun conn ->
      Rtchan.Resource.release_primary_path res
        conn.Bcp.Dconn.primary.Rtchan.Channel.path (Bcp.Dconn.bandwidth conn))
    conns;
  List.length (List.filter (reroute ns res ~failed) conns)

(* Run one scenario in "release failed primaries, re-route" style on a
   copy of the pools, so the established network is untouched between
   scenarios. *)
let scenario_reactive ns ~failed =
  let considered, _excluded = Bcp.Recovery.affected_conns ns ~failed in
  let ordered =
    List.sort (fun a b -> Int.compare a.Bcp.Dconn.id b.Bcp.Dconn.id) considered
  in
  (List.length ordered, reroute_all ns ~failed ordered)

let reactive_rate ~seed ns model =
  let affected = ref 0 and recovered = ref 0 in
  List.iter
    (fun sc ->
      let a, r = scenario_reactive ns ~failed:(failed_components sc) in
      affected := !affected + a;
      recovered := !recovered + r)
    (scenarios_of ~seed ns model);
  if !affected = 0 then 100.0 else Sim.Stats.ratio !recovered !affected

(* BCP slow path: connections whose fast recovery failed re-establish from
   scratch on the remaining capacity (old primary released; spare pools
   stay reserved for the surviving backups). *)
let scenario_bcp_total ns ~failed =
  let r = Bcp.Recovery.simulate ns ~failed in
  let losers =
    List.filter_map
      (fun (conn_id, outcome) ->
        match outcome with
        | Bcp.Recovery.Recovered _ -> None
        | Bcp.Recovery.Mux_failure | Bcp.Recovery.No_healthy_backup ->
          Bcp.Netstate.find ns conn_id)
      r.Bcp.Recovery.outcomes
  in
  (r.Bcp.Recovery.affected, r.Bcp.Recovery.recovered, reroute_all ns ~failed losers)

let bcp_total_rate ~seed ns model =
  let affected = ref 0 and fast = ref 0 and slow = ref 0 in
  List.iter
    (fun sc ->
      let a, f, s = scenario_bcp_total ns ~failed:(failed_components sc) in
      affected := !affected + a;
      fast := !fast + f;
      slow := !slow + s)
    (scenarios_of ~seed ns model);
  if !affected = 0 then (100.0, 100.0)
  else
    ( Sim.Stats.ratio !fast !affected,
      Sim.Stats.ratio (!fast + !slow) !affected )

(* The exported rates sample double-node scenarios with a fixed seed;
   [compare] passes its own. *)
let reactive_recovery_rate = reactive_rate ~seed:7
let bcp_total_recovery_rate = bcp_total_rate ~seed:7

let build_with ~seed ~backups ~mux_degree network =
  let topo = Setup.topology_of network in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create seed in
  let requests =
    Workload.Generator.shuffled rng
      (Workload.Generator.all_pairs ~backups ~mux_degree topo)
  in
  Setup.establish_all ns requests

let compare ?(seed = 42) ?(double_sample = 300) network =
  (* The proposed scheme: one backup per connection. *)
  let bcp = build_with ~seed ~backups:1 ~mux_degree:3 network in
  (* Reactive: same demand, no backups, no spare. *)
  let reactive = build_with ~seed ~backups:0 ~mux_degree:0 network in
  List.map
    (fun model ->
      let fast, total = bcp_total_rate ~seed bcp.Setup.ns model in
      {
        model;
        bcp_fast = fast;
        bcp_total = total;
        reactive = reactive_rate ~seed reactive.Setup.ns model;
        bcp_spare = bcp.Setup.spare;
        reactive_spare = reactive.Setup.spare;
      })
    [ Rfast.Single_link; Rfast.Single_node; Rfast.Double_node (Some double_sample) ]

let report network comparisons =
  let r =
    Report.make
      ~title:
        (Printf.sprintf
           "BCP vs reactive re-establishment [BAN93] — %s"
           (Setup.network_label network))
      ~columns:
        [
          "BCP fast";
          "BCP fast+slow";
          "reactive";
          "BCP spare";
          "reactive spare";
        ]
  in
  List.iter
    (fun c ->
      Report.add_row r ~label:(Rfast.model_label c.model)
        ~cells:
          [
            Report.pct c.bcp_fast;
            Report.pct c.bcp_total;
            Report.pct c.reactive;
            Report.pct c.bcp_spare;
            Report.pct c.reactive_spare;
          ])
    comparisons;
  r
