type backup_routing = Min_hops | Min_spare_increment

type request = {
  src : int;
  dst : int;
  traffic : Rtchan.Traffic.t;
  qos : Rtchan.Qos.t;
  backups : int;
  mux_degree : int;
}

type reject =
  | Primary_rejected of Rtchan.Rnmp.reject_reason
  | Backup_rejected of int
  | Reliability_unreachable of float

let pp_reject ppf = function
  | Primary_rejected r ->
    Format.fprintf ppf "primary rejected: %a" Rtchan.Rnmp.pp_reject r
  | Backup_rejected serial -> Format.fprintf ppf "backup #%d rejected" serial
  | Reliability_unreachable best ->
    Format.fprintf ppf "required reliability unreachable (best %.9f)" best

(* Reusable per-domain cost cache for the spare-increment search: Dijkstra
   may relax a link at several hop levels, and the per-link cost is
   constant during one search but O(backups on link) to compute.  Epoch
   stamping makes starting a search O(1); [cost.(l) < 0] encodes an
   inadmissible link. *)
type cost_ws = {
  mutable ccost : float array;
  mutable cstamp : int array;
  mutable cepoch : int;
}

let cost_ws_key =
  Domain.DLS.new_key (fun () -> { ccost = [||]; cstamp = [||]; cepoch = 0 })

let get_cost_ws num_links =
  let ws = Domain.DLS.get cost_ws_key in
  if Array.length ws.ccost < num_links then begin
    ws.ccost <- Array.make num_links 0.0;
    ws.cstamp <- Array.make num_links 0;
    ws.cepoch <- 0
  end;
  ws.cepoch <- ws.cepoch + 1;
  ws

(* Admission checks against a link's mutable state, summed over the
   primary search ({!Rtchan.Rnmp.establish}) and every backup search. *)
let admission_checks = Sim.Prof.counter "establish.admission_checks"

(* The connection's primary, encoded once for every admission probe and
   registration of its backups. *)
let primary_components ns conn =
  Mux.encode_path (Netstate.topology ns) conn.Dconn.primary.Rtchan.Channel.path

(* Route one backup interior-disjoint from [avoid] and clear of
   [avoid_components], admissible at threshold [nu].  [strategy] picks
   between the paper's shortest-path search and the
   spare-increment-minimising extension. *)
let route_backup ?reference ?(strategy = Min_hops) ?(avoid_components = []) ns
    ~conn ~components ~bid ~serial ~nu ~avoid =
  let topo = Netstate.topology ns in
  let src = conn.Dconn.src and dst = conn.Dconn.dst in
  let info =
    {
      Mux.backup = bid;
      conn = conn.Dconn.id;
      serial;
      nu;
      bw = Dconn.bandwidth conn;
      primary_components = components;
    }
  in
  (* One admission probe per candidate: its overlap counts against the
     primary index are taken once, however many links the routing search
     relaxes. *)
  let probe = Mux.probe (Netstate.mux ns) info in
  (* One banned-component mask serves all three searches below: the
     interiors of the connection's other channels and the failed
     components to avoid.  It lives in the domain-local scratch, which no
     search acquires, so it stays valid until this route returns. *)
  let num_nodes = Net.Topology.num_nodes topo in
  let num_links = Net.Topology.num_links topo in
  let banned = Net.Component.Mask.scratch ~num_nodes ~num_links in
  (* An id outside the topology lies on no path. *)
  let in_range = function
    | Net.Component.Node v -> v >= 0 && v < num_nodes
    | Net.Component.Link l -> l >= 0 && l < num_links
  in
  List.iter
    (fun c -> if in_range c then Net.Component.Mask.add banned c)
    avoid_components;
  List.iter (fun p -> Net.Path.mask_interior topo p banned) avoid;
  let clear_link id = not (Net.Component.Mask.mem_link banned id) in
  let node_ok v = not (Net.Component.Mask.mem_node banned v) in
  (* The QoS hop budget is relative to the shortest path available *to
     this channel*: disjoint from the connection's other channels and
     clear of failed components (Section 7: "not longer than the
     shortest-possible path by more than 2 hops").  Using the
     unconstrained shortest here would make a third disjoint channel
     infeasible for many torus node pairs the paper evaluates. *)
  match
    Routing.Shortest.shortest_hops ~link_ok:clear_link ~node_ok ?reference topo
      ~src ~dst
  with
  | None -> None
  | Some shortest -> (
    let budget = Rtchan.Qos.max_hops conn.Dconn.qos ~shortest in
    match strategy with
    | Min_hops ->
      (* The admission probe runs before the mask test, so every link the
         search relaxes is probed and counted, banned or not. *)
      let link_ok id =
        (Sim.Prof.incr admission_checks;
         Netstate.backup_admissible_probe ns probe ~link:id)
        && clear_link id
      in
      Routing.Shortest.shortest_path ~link_ok ~node_ok ~max_hops:budget
        ?reference topo ~src ~dst
    | Min_spare_increment ->
      (* Cost of a link = extra spare bandwidth this backup would force it
         to reserve, with a small per-hop epsilon to prefer shorter paths
         among equals.  Banned links cost nothing to reject: the mask is
         tested before the probe.  One exact scan gives both the admission
         verdict and the increment: the verdict equals
         [Netstate.backup_admissible_probe]'s, whose ceiling only
         fast-accepts what the exact requirement accepts too. *)
      let mux = Netstate.mux ns in
      let res = Netstate.resources ns in
      let epsilon_hop = 1e-6 *. Float.max 1.0 info.Mux.bw in
      let ws = get_cost_ws num_links in
      let epoch = ws.cepoch in
      let cost id =
        if ws.cstamp.(id) <> epoch then begin
          ws.cstamp.(id) <- epoch;
          ws.ccost.(id) <-
            (if not (clear_link id) then -1.0
             else begin
               Sim.Prof.incr admission_checks;
               match Netstate.policy ns with
               | Netstate.Brute_force _ -> epsilon_hop
               | Netstate.Multiplexed ->
                 let required = Mux.probe_required probe ~link:id in
                 if Rtchan.Resource.can_set_spare res id required then
                   Float.max 0.0 (required -. Mux.spare_requirement mux ~link:id)
                   +. epsilon_hop
                 else -1.0
             end)
        end;
        let c = ws.ccost.(id) in
        if c < 0.0 then None else Some c
      in
      Option.map fst
        (Routing.Dijkstra.shortest_path ~cost ~node_ok ~max_hops:budget topo
           ~src ~dst))

(* Add a routed backup to the connection and the network tables.  The
   span isolates the registration share of establishment (mux table
   insertion dominates it) from the routing searches around it. *)
let attach ns conn backup ~components =
  Sim.Prof.span "establish.register" @@ fun () ->
  conn.Dconn.backups <- conn.Dconn.backups @ [ backup ];
  Netstate.register_backup ns conn backup ~primary_components:components

let detach ns conn backup =
  Netstate.unregister_backup ns conn backup;
  conn.Dconn.backups <-
    List.filter (fun b -> b.Dconn.serial <> backup.Dconn.serial) conn.Dconn.backups

(* Route one more standby backup for [conn] under a fresh id, disjoint
   from its primary and its live backups, and attach it; [None] when no
   admissible route exists. *)
let add_standby ?reference ?strategy ?avoid_components ns conn ~components
    ~serial ~nu =
  let bid = Netstate.fresh_backup_id ns in
  let avoid =
    conn.Dconn.primary.Rtchan.Channel.path
    :: List.filter_map
         (fun b ->
           match b.Dconn.state with
           | Dconn.Standby | Dconn.Activated -> Some b.Dconn.path
           | Dconn.Broken | Dconn.Closed -> None)
         conn.Dconn.backups
  in
  match
    Sim.Prof.span "establish.backup_route" (fun () ->
        route_backup ?reference ?strategy ?avoid_components ns ~conn
          ~components ~bid ~serial ~nu ~avoid)
  with
  | None -> None
  | Some path ->
    let b = { Dconn.bid; serial; path; nu; state = Dconn.Standby } in
    attach ns conn b ~components;
    Some b

(* Build the connection around its admitted primary and let [grow] attach
   its backups: on [Ok] the connection joins the network state, on
   [Error] everything reserved for it is rolled back. *)
let with_conn ns ~conn_id ~src ~dst ~traffic ~qos ~target_backups primary grow
    =
  let conn =
    {
      Dconn.id = conn_id;
      src;
      dst;
      traffic;
      qos;
      primary;
      backups = [];
      primary_alive = true;
      target_backups;
    }
  in
  match grow conn with
  | Ok _ as ok ->
    Netstate.add_dconn ns conn;
    ok
  | Error _ as e ->
    List.iter (fun b -> Netstate.unregister_backup ns conn b) conn.Dconn.backups;
    Netstate.release_primary ns conn;
    e

let establish ?reference ?backup_routing ns ~conn_id request =
  if request.backups < 0 then invalid_arg "Establish.establish: negative backups";
  if request.mux_degree < 0 then
    invalid_arg "Establish.establish: negative mux degree";
  Sim.Prof.span "establish.serial" @@ fun () ->
  match
    Sim.Prof.span "establish.primary" (fun () ->
        Rtchan.Rnmp.establish ?reference (Netstate.rnmp ns) ~src:request.src
          ~dst:request.dst ~traffic:request.traffic ~qos:request.qos)
  with
  | Error r -> Error (Primary_rejected r)
  | Ok primary ->
    with_conn ns ~conn_id ~src:request.src ~dst:request.dst
      ~traffic:request.traffic ~qos:request.qos ~target_backups:request.backups
      primary
    @@ fun conn ->
    let nu =
      Reliability.Combinatorial.nu_of_degree ~lambda:(Netstate.lambda ns)
        request.mux_degree
    in
    let components = primary_components ns conn in
    let rec add_backups serial =
      if serial > request.backups then Ok conn
      else
        match
          add_standby ?reference ?strategy:backup_routing ns conn ~components
            ~serial ~nu
        with
        | None -> Error (Backup_rejected serial)
        | Some _ -> add_backups (serial + 1)
    in
    add_backups 1

let add_backup ?avoid_components ns conn ~mux_degree =
  if mux_degree < 0 then invalid_arg "Establish.add_backup: negative mux degree";
  let nu =
    Reliability.Combinatorial.nu_of_degree ~lambda:(Netstate.lambda ns) mux_degree
  in
  let serial =
    1 + List.fold_left (fun m b -> max m b.Dconn.serial) 0 conn.Dconn.backups
  in
  match
    add_standby ?avoid_components ns conn ~components:(primary_components ns conn)
      ~serial ~nu
  with
  | None -> Error (Backup_rejected serial)
  | Some b -> Ok b

(* A path's component count is the length of its encoded array. *)
let achieved_pr ns conn =
  let topo = Netstate.topology ns in
  let mux = Netstate.mux ns in
  let count path = Array.length (Mux.encode_path topo path) in
  let backups =
    List.filter_map
      (fun b ->
        if b.Dconn.state <> Dconn.Standby then None
        else begin
          let psi_sizes =
            List.map
              (fun link -> Mux.psi_size mux ~link ~backup:b.Dconn.bid)
              (Net.Path.links b.Dconn.path)
          in
          let p_muxf =
            Reliability.Combinatorial.p_muxf_bound ~nu:b.Dconn.nu ~psi_sizes
          in
          Some (count b.Dconn.path, p_muxf)
        end)
      conn.Dconn.backups
  in
  Reliability.Combinatorial.pr_multi_backup ~lambda:(Netstate.lambda ns)
    ~c_primary:(count conn.Dconn.primary.Rtchan.Channel.path)
    ~backups

let establish_with_reliability ?(max_backups = 3) ns ~conn_id ~src
    ~dst ~traffic ~qos ~pr_required =
  let lambda = Netstate.lambda ns in
  let topo = Netstate.topology ns in
  (* Candidate degrees: one class per possible shared-component count, at
     most the longest path length in components (Section 3.4: "the number
     of classes are not greater than the length of the longest possible
     path in the network"). *)
  let max_degree = (2 * Net.Topology.num_nodes topo) + 1 in
  match Rtchan.Rnmp.establish (Netstate.rnmp ns) ~src ~dst ~traffic ~qos with
  | Error r -> Error (Primary_rejected r)
  | Ok primary ->
    with_conn ns ~conn_id ~src ~dst ~traffic ~qos ~target_backups:max_backups
      primary
    @@ fun conn ->
    let components = primary_components ns conn in
    (* Try to attach one more backup: scan degrees from largest (cheapest)
       to smallest, keeping the largest degree whose resulting P_r meets
       the requirement; if none does, keep the smallest feasible degree
       (maximum protection) and let the caller add another backup. *)
    let try_add serial =
      let rec scan alpha best_fallback =
        if alpha < 1 then best_fallback
        else begin
          let nu = Reliability.Combinatorial.nu_of_degree ~lambda alpha in
          match add_standby ns conn ~components ~serial ~nu with
          | None -> scan (alpha - 1) best_fallback
          | Some b ->
            let pr = achieved_pr ns conn in
            if Reliability.Combinatorial.pr_requirement_met ~required:pr_required ~achieved:pr
            then Some (b, pr, true)
            else begin
              detach ns conn b;
              scan (alpha - 1) (Some (b, pr, false))
            end
        end
      in
      scan max_degree None
    in
    let unreachable () = Error (Reliability_unreachable (achieved_pr ns conn)) in
    let rec grow serial =
      if serial > max_backups then unreachable ()
      else
        match try_add serial with
        | None -> unreachable ()
        | Some (_, pr, true) -> Ok (conn, pr)
        | Some (b, _, false) ->
          (* Keep the most protective feasible backup and try to close the
             gap with another one. *)
          attach ns conn b ~components;
          grow (serial + 1)
    in
    let pr = achieved_pr ns conn in
    if Reliability.Combinatorial.pr_requirement_met ~required:pr_required ~achieved:pr
    then Ok (conn, pr)
    else grow 1
