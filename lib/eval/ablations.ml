let degrees = Setup.paper_degrees

let priority_activation ?(seed = 42) ?(double_sample = 300) network =
  let est = Setup.build_mixed ~seed ~backups:1 network in
  let r =
    Report.make
      ~title:
        (Printf.sprintf
           "Priority-based activation under double-node failures — %s (spare %s)"
           (Setup.network_label network)
           (Report.pct est.Setup.spare))
      ~columns:(List.map (fun d -> Printf.sprintf "mux=%d" d) degrees)
  in
  let model = Rfast.Double_node (Some double_sample) in
  let arrival = Rfast.measure ~seed est.Setup.ns model in
  let rng = Sim.Prng.create (seed + 1) in
  let priority =
    Rfast.measure ~seed ~order:(Bcp.Recovery.By_priority) est.Setup.ns model
  in
  let shuffled =
    Rfast.measure ~seed ~order:(Bcp.Recovery.Shuffled rng) est.Setup.ns model
  in
  let row label m =
    Report.add_row r ~label
      ~cells:(List.map (fun d -> Report.pct (Rfast.r_fast_deg m d)) degrees)
  in
  row "arrival order" arrival;
  row "random order" shuffled;
  row "priority order" priority;
  r

let inhomogeneous ?(seed = 42) network =
  let degree = 5 and hotspot_fraction = 0.35 in
  let topo = Setup.topology_of network in
  (* Demand scales with the network: 3000 connections on the 8x8 grids
     (the paper's hot-spot experiment), proportionally fewer on the
     reduced 4x4 variants. *)
  let count = Setup.pair_count network * 3000 / 4032 in
  let hotspots = Setup.center_nodes network in
  let requests rng =
    Workload.Generator.hotspot rng topo ~hotspots ~fraction:hotspot_fraction
      ~count ~mux_degree:degree ~backups:1
  in
  let proposed_ns = Bcp.Netstate.create (Setup.topology_of network) () in
  let proposed =
    Setup.establish_all proposed_ns (requests (Sim.Prng.create seed))
  in
  let per_link =
    Rtchan.Resource.total_spare (Bcp.Netstate.resources proposed.Setup.ns)
    /. float_of_int (Net.Topology.num_links topo)
  in
  let brute_ns =
    Bcp.Netstate.create
      ~policy:(Bcp.Netstate.Brute_force per_link)
      (Setup.topology_of network) ()
  in
  let brute =
    Setup.establish_all brute_ns (requests (Sim.Prng.create seed))
  in
  let r =
    Report.make
      ~title:
        (Printf.sprintf
           "Hot-spot traffic (%d conns, %.0f%% to center, mux=%d) — %s"
           count (100.0 *. hotspot_fraction) degree
           (Setup.network_label network))
      ~columns:[ "proposed"; "brute-force (same avg spare)" ]
  in
  Report.add_row r ~label:"Spare bandwidth"
    ~cells:[ Report.pct proposed.Setup.spare; Report.pct brute.Setup.spare ];
  List.iter
    (fun model ->
      Report.add_row r ~label:(Rfast.model_label model)
        ~cells:
          [
            Report.pct (Rfast.r_fast (Rfast.measure ~seed proposed.Setup.ns model));
            Report.pct (Rfast.r_fast (Rfast.measure ~seed brute.Setup.ns model));
          ])
    [ Rfast.Single_link; Rfast.Single_node ];
  r

let scheme_coverage ?(seed = 5) ns =
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create seed in
  let link = Sim.Prng.int rng (Net.Topology.num_links topo) in
  let r =
    Report.make
      ~title:(Printf.sprintf "Scheme comparison on failure of link %d" link)
      ~columns:
        [ "RCC msgs"; "ctrl delivered"; "src informed"; "dst informed"; "resumed" ]
  in
  List.iter
    (fun (label, cells) -> Report.add_row r ~label ~cells)
    (Sim.Pool.map
       (fun scheme ->
         let config = { Bcp.Protocol.default_config with scheme } in
         let o =
           Episode.run ~config ~until:0.1 ns
             (Failures.Plan.of_scenario ~at:0.01
                (Failures.Scenario.single_link topo link))
         in
         let n = List.length o.affected in
         let count f = List.length (List.filter f o.affected) in
         ( Recovery_delay.scheme_label scheme,
           [
             string_of_int o.rcc_sent;
             string_of_int o.rcc_delivered;
             Printf.sprintf "%d/%d"
               (count (fun rc -> rc.Bcp.Node.src_informed <> None))
               n;
             Printf.sprintf "%d/%d"
               (count (fun rc -> rc.Bcp.Node.dst_informed <> None))
               n;
             Printf.sprintf "%d/%d"
               (count (fun rc -> rc.Bcp.Node.resumed_at <> None))
               n;
           ] ))
       [ Bcp.Protocol.Scheme1; Bcp.Protocol.Scheme2; Bcp.Protocol.Scheme3 ]);
  r

let backup_routing ?(seed = 42) network =
  let r =
    Report.make
      ~title:
        (Printf.sprintf
           "Backup routing: shortest-path vs spare-increment-minimising — %s"
           (Setup.network_label network))
      ~columns:(List.map (fun d -> Printf.sprintf "mux=%d" d) degrees)
  in
  let run strategy =
    (* Independent establishment per (strategy, degree) pair. *)
    Sim.Pool.map
      (fun degree ->
        let est =
          Setup.build ~seed ~backups:1 ~mux_degree:degree
            ~backup_routing:strategy network
        in
        let m = Rfast.measure ~seed est.Setup.ns Rfast.Single_link in
        (est.Setup.spare, Rfast.r_fast m))
      degrees
  in
  let shortest = run Bcp.Establish.Min_hops in
  let sparing = run Bcp.Establish.Min_spare_increment in
  Report.add_row r ~label:"spare %, shortest-path"
    ~cells:(List.map (fun (s, _) -> Report.pct s) shortest);
  Report.add_row r ~label:"spare %, min-spare routing"
    ~cells:(List.map (fun (s, _) -> Report.pct s) sparing);
  Report.add_row r ~label:"R_fast 1-link, shortest-path"
    ~cells:(List.map (fun (_, rf) -> Report.pct rf) shortest);
  Report.add_row r ~label:"R_fast 1-link, min-spare routing"
    ~cells:(List.map (fun (_, rf) -> Report.pct rf) sparing);
  r
