type network = Torus8 | Mesh8 | Torus4 | Mesh4 | Torus16 | Mesh16 | Torus64 | Mesh64

let topology_of = function
  | Torus8 -> Net.Builders.torus ~rows:8 ~cols:8 ~capacity:200.0
  | Mesh8 -> Net.Builders.mesh ~rows:8 ~cols:8 ~capacity:300.0
  | Torus4 -> Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0
  | Mesh4 -> Net.Builders.mesh ~rows:4 ~cols:4 ~capacity:75.0
  | Torus16 -> Net.Builders.torus ~rows:16 ~cols:16 ~capacity:800.0
  | Mesh16 -> Net.Builders.mesh ~rows:16 ~cols:16 ~capacity:1200.0
  | Torus64 -> Net.Builders.torus ~rows:64 ~cols:64 ~capacity:12800.0
  | Mesh64 -> Net.Builders.mesh ~rows:64 ~cols:64 ~capacity:19200.0

let network_label = function
  | Torus8 -> "8x8 torus (200 Mbps links)"
  | Mesh8 -> "8x8 mesh (300 Mbps links)"
  | Torus4 -> "4x4 torus (50 Mbps links)"
  | Mesh4 -> "4x4 mesh (75 Mbps links)"
  | Torus16 -> "16x16 torus (800 Mbps links)"
  | Mesh16 -> "16x16 mesh (1200 Mbps links)"
  | Torus64 -> "64x64 torus (12800 Mbps links)"
  | Mesh64 -> "64x64 mesh (19200 Mbps links)"

let dims = function
  | Torus8 | Mesh8 -> (8, 8)
  | Torus4 | Mesh4 -> (4, 4)
  | Torus16 | Mesh16 -> (16, 16)
  | Torus64 | Mesh64 -> (64, 64)

let names =
  [
    ("torus4", Torus4); ("mesh4", Mesh4);
    ("torus8", Torus8); ("mesh8", Mesh8);
    ("torus16", Torus16); ("mesh16", Mesh16);
    ("torus64", Torus64); ("mesh64", Mesh64);
  ]

let of_name s = List.assoc_opt (String.lowercase_ascii s) names

let pair_count network =
  let rows, cols = dims network in
  let n = rows * cols in
  n * (n - 1)

let center_nodes network =
  (* The central 2x2 of the rows x cols grid: [27; 28; 35; 36] on 8x8. *)
  let rows, cols = dims network in
  [
    (((rows / 2) - 1) * cols) + (cols / 2) - 1;
    (((rows / 2) - 1) * cols) + (cols / 2);
    ((rows / 2) * cols) + (cols / 2) - 1;
    ((rows / 2) * cols) + (cols / 2);
  ]

type establishment = {
  ns : Bcp.Netstate.t;
  established : int;
  rejected : int;
  load : float;
  spare : float;
}

let establish_all ?backup_routing ?(progress_every = 250) ?on_progress ns
    requests =
  (* Deterministic lowest-link-id tie-breaking matches the paper's plain
     sequential shortest-path routing and its reported spare levels. *)
  let established = ref 0 and rejected = ref 0 in
  let note i outcome =
    (match outcome with
    | Ok _ -> incr established
    | Error _ -> incr rejected);
    match on_progress with
    | Some f when (i + 1) mod progress_every = 0 ->
      f ~established:!established ~load:(Bcp.Netstate.network_load ns)
        ~spare:(Bcp.Netstate.spare_fraction ns)
    | _ -> ()
  in
  (* Build the static distance oracle up front, so the one-time build
     cost lands under its own [route.oracle_build] span instead of inside
     the first request's search. *)
  Routing.Oracle.warm (Bcp.Netstate.topology ns);
  Sim.Prof.span "establish.serial_batch" (fun () ->
      List.iteri
        (fun i r ->
          note i
            (Bcp.Establish.establish ?backup_routing ns ~conn_id:i r))
        requests);
  {
    ns;
    established = !established;
    rejected = !rejected;
    load = Bcp.Netstate.network_load ns;
    spare = Bcp.Netstate.spare_fraction ns;
  }

let build ?(seed = 42) ?(backups = 1) ?(mux_degree = 1) ?backup_routing ?obs
    network =
  let topo = topology_of network in
  let ns = Bcp.Netstate.create topo () in
  Option.iter
    (fun c ->
      Bcp.Mux.set_event_sink (Bcp.Netstate.mux ns)
        (Some (Telemetry.setup_sink c)))
    obs;
  let rng = Sim.Prng.create seed in
  let requests =
    Workload.Generator.shuffled rng
      (Workload.Generator.all_pairs ~backups ~mux_degree topo)
  in
  establish_all ?backup_routing ns requests

let build_scaled ?(seed = 42) ?(backups = 1) ?(mux_degree = 3) network =
  let topo = topology_of network in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create seed in
  let count = 8 * Net.Topology.num_nodes topo in
  let requests =
    Workload.Generator.random_pairs rng ~backups ~mux_degree topo ~count
  in
  establish_all ns requests

let paper_degrees = [ 1; 3; 5; 6 ]

let build_mixed ?(seed = 42) ?(backups = 1) network =
  let topo = topology_of network in
  let ns = Bcp.Netstate.create topo () in
  let rng = Sim.Prng.create seed in
  let requests =
    Workload.Generator.with_mux_mix ~degrees:paper_degrees
      (Workload.Generator.shuffled rng
         (Workload.Generator.all_pairs ~backups topo))
  in
  establish_all ns requests
