(* Quickstart: establish a dependable real-time connection on a small
   torus, inspect what BCP reserved for it, break the primary channel, and
   watch the backup take over — first with the static recovery engine,
   then with the full event-driven protocol.

   Run with:  dune exec examples/quickstart.exe *)

let printf = Format.printf

(* One line per connection: its endpoints and bandwidth, the primary's
   path, then each backup as #serial(path,state). *)
let pp_conn ppf (t : Bcp.Dconn.t) =
  let state = function
    | Bcp.Dconn.Standby -> "standby"
    | Activated -> "activated"
    | Broken -> "broken"
    | Closed -> "closed"
  in
  Format.fprintf ppf "@[conn#%d %d->%d bw=%.2f primary=%a backups=[%a]@]"
    t.id t.src t.dst (Bcp.Dconn.bandwidth t) Net.Path.pp
    t.primary.Rtchan.Channel.path
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (b : Bcp.Dconn.backup) ->
         Format.fprintf ppf "#%d(%a,%s)" b.serial Net.Path.pp b.path
           (state b.state)))
    t.backups

let () =
  (* 1. A 4x4 torus with 100 Mbps links. *)
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:100.0 in
  printf "network: %d nodes, %d simplex links, %.0f Mbps total@."
    (Net.Topology.num_nodes topo) (Net.Topology.num_links topo)
    (Net.Topology.total_capacity topo);

  (* 2. A dependable connection: 8 Mbps of video from node 0 to node 10,
        protected by two disjoint backup channels at multiplexing degree 3
        (recovery from any single link failure is guaranteed). *)
  let ns = Bcp.Netstate.create topo () in
  let request =
    {
      Bcp.Establish.src = 0;
      dst = 10;
      traffic = Rtchan.Traffic.of_bandwidth 8.0;
      qos = Rtchan.Qos.default;
      backups = 2;
      mux_degree = 3;
    }
  in
  let conn =
    match Bcp.Establish.establish ns ~conn_id:0 request with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "rejected: %a" Bcp.Establish.pp_reject e
  in
  printf "@.established D-connection: %a@." pp_conn conn;
  printf "achieved P_r (per time unit): %.9f@." (Bcp.Establish.achieved_pr ns conn);
  printf "network load %.2f%%, spare bandwidth %.2f%%@."
    (Bcp.Netstate.network_load ns)
    (Bcp.Netstate.spare_fraction ns);

  (* 3. Static what-if: break the first link of the primary. *)
  let failed_link =
    List.hd (Net.Path.links conn.Bcp.Dconn.primary.Rtchan.Channel.path)
  in
  let result =
    Bcp.Recovery.simulate ns ~failed:[ Net.Component.Link failed_link ]
  in
  printf "@.static analysis after failing link %d: R_fast = %.1f%%@."
    failed_link
    (Bcp.Recovery.r_fast result);

  (* 4. The same failure through the real protocol: failure detection,
        RCC failure reports, bidirectional backup activation, observed
        through the typed event stream. *)
  let episode =
    (* [~obs] turns the typed event stream on; the collector itself is
       not read. *)
    Eval.Episode.run ~obs:(Eval.Telemetry.create ~events:false)
      ~config:Bcp.Protocol.default_config ~until:0.100 ns
      (Failures.Plan.of_scenario ~at:0.010
         (Failures.Scenario.single_link topo failed_link))
  in
  List.iter
    (fun r ->
      let resumed = Option.get r.Bcp.Node.resumed_at in
      printf
        "@.protocol run: primary failed at t=%.3fs; service resumed at \
         t=%.6fs@."
        r.Bcp.Node.failure_time resumed;
      printf "service disruption: %.3f ms (backup #%d now carries traffic)@."
        (1000.0 *. (resumed -. r.Bcp.Node.failure_time))
        (Option.get r.Bcp.Node.recovered_serial))
    episode.Eval.Episode.records;

  printf "@.protocol trace:@.";
  List.iter
    (fun (time, ev) -> printf "  [%10.6f] %s@." time (Sim.Event.to_string ev))
    (Sim.Trace.events episode.Eval.Episode.trace)
