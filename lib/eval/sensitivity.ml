let establish_requests ns requests =
  Setup.establish_all ns requests

let measure_case ~label ns requests =
  let est = establish_requests ns requests in
  let m = Rfast.measure est.Setup.ns Rfast.Single_link in
  ( label,
    est.Setup.load,
    est.Setup.spare,
    (if est.Setup.load > 0.0 then est.Setup.spare /. est.Setup.load else 0.0),
    Rfast.r_fast m,
    est.Setup.rejected )

let add_case report (label, load, spare, ratio, rfast, rejected) =
  Report.add_row report ~label
    ~cells:
      [
        Report.pct load;
        Report.pct spare;
        Printf.sprintf "%.3f" ratio;
        Report.pct rfast;
        string_of_int rejected;
      ]

let columns = [ "load"; "spare"; "spare/load"; "R_fast 1-link"; "rejected" ]

let mux_degree = 3

let traffic ?(seed = 42) network =
  let report =
    Report.make
      ~title:
        (Printf.sprintf
           "Multiplexing sensitivity to traffic (mux=%d) — %s" mux_degree
           (Setup.network_label network))
      ~columns
  in
  let topo () = Setup.topology_of network in
  let uniform () =
    let t = topo () in
    let rng = Sim.Prng.create seed in
    measure_case ~label:"uniform 1 Mbps (all pairs)"
      (Bcp.Netstate.create t ())
      (Workload.Generator.shuffled rng
         (Workload.Generator.all_pairs ~mux_degree t))
  in
  let mixed () =
    let t = topo () in
    let rng = Sim.Prng.create seed in
    measure_case ~label:"mixed bandwidths {0.5,1,2,4}"
      (Bcp.Netstate.create t ())
      (Workload.Generator.with_bandwidth_mix
         (Sim.Prng.create (seed + 1))
         ~choices:[ 0.5; 1.0; 2.0; 4.0 ]
         (Workload.Generator.shuffled rng
            (Workload.Generator.all_pairs ~mux_degree t)))
  in
  let hotspot () =
    let t = topo () in
    measure_case ~label:"hot-spot endpoints (35% to center)"
      (Bcp.Netstate.create t ())
      (Workload.Generator.hotspot
         (Sim.Prng.create (seed + 2))
         t
         ~hotspots:(Setup.center_nodes network)
         ~fraction:0.35 ~count:(Setup.pair_count network) ~mux_degree)
  in
  (* The three traffic cases build independent netstates. *)
  List.iter (add_case report)
    (Sim.Pool.map (fun case -> case ()) [ uniform; mixed; hotspot ]);
  report

let topology ?(seed = 42) () =
  let report =
    Report.make
      ~title:
        (Printf.sprintf
           "Multiplexing sensitivity to topology (mux=%d, 1500 random 1 Mbps \
            connections, 200 Mbps links)"
           mux_degree)
      ~columns
  in
  let cases =
    [
      ("8x8 torus (degree 4)", Net.Builders.torus ~rows:8 ~cols:8 ~capacity:200.0);
      ("8x8 mesh (degree 2-4)", Net.Builders.mesh ~rows:8 ~cols:8 ~capacity:200.0);
      ( "hypercube dim 6 (degree 6)",
        Net.Builders.hypercube ~dim:6 ~capacity:200.0 );
      ( "random 64 nodes (degree ~3)",
        Net.Builders.random_connected (Sim.Prng.create seed) ~nodes:64
          ~extra_edges:33 ~capacity:200.0 );
    ]
  in
  List.iter (add_case report)
    (Sim.Pool.map
       (fun (label, topo) ->
         let rng = Sim.Prng.create (seed + 7) in
         let requests =
           Workload.Generator.random_pairs rng ~mux_degree topo ~count:1500
         in
         measure_case ~label (Bcp.Netstate.create topo ()) requests)
       cases);
  report

let s_max_audit ns params =
  let topo = Bcp.Netstate.topology ns in
  let mux = Bcp.Netstate.mux ns in
  let channels_on l =
    List.length (Bcp.Netstate.conns_with_primary_on ns (Net.Component.Link l))
    + Bcp.Mux.count_on mux ~link:l
  in
  (* Worst link pair: the two simplex links between one node pair. *)
  let worst = ref 0 and worst_pair = ref (-1, -1) in
  Net.Topology.iter_links topo (fun l ->
      let fwd = channels_on l.Net.Topology.id in
      let rev =
        match
          Net.Topology.find_link topo ~src:l.Net.Topology.dst
            ~dst:l.Net.Topology.src
        with
        | Some r -> channels_on r
        | None -> 0
      in
      if fwd + rev > !worst then begin
        worst := fwd + rev;
        worst_pair := (l.Net.Topology.src, l.Net.Topology.dst)
      end);
  let x =
    Rcc.Control.size_bytes
      (Rcc.Control.Failure_report { channel = 0; component = Net.Component.Link 0 })
  in
  let required =
    Rcc.Bounds.s_max_requirement ~control_message_size:x
      ~max_channels_on_link_pair:!worst
  in
  let report =
    Report.make ~title:"S^RCC_max sizing audit (Section 5.2)"
      ~columns:[ "value" ]
  in
  let a, b = !worst_pair in
  Report.add_row report ~label:"worst link pair"
    ~cells:[ Printf.sprintf "%d <-> %d" a b ];
  Report.add_row report ~label:"channels on worst pair"
    ~cells:[ string_of_int !worst ];
  Report.add_row report ~label:"control message size"
    ~cells:[ Printf.sprintf "%d B" x ];
  Report.add_row report ~label:"required S_max"
    ~cells:[ Printf.sprintf "%d B" required ];
  Report.add_row report ~label:"configured S_max"
    ~cells:[ Printf.sprintf "%d B" params.Rcc.Transport.s_max ];
  Report.add_row report ~label:"bound satisfied"
    ~cells:[ (if params.Rcc.Transport.s_max >= required then "yes" else "NO") ];
  report
