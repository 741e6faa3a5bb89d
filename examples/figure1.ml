(* Figures 1 and 2 of the paper, reconstructed.

   Three real-time channels share a network whose links carry at most two
   channels each.  Channels 1 and 2 transit node X; their only QoS-feasible
   detours share the bottleneck link Y->Z.

   Blind rerouting (Figure 1): channel 3 was greedily placed on Y->Z, so
   when X crashes only one of the two disrupted channels fits on the
   detour — the other is unrecoverable within its QoS budget.

   Backup Channel Protocol (Figure 2): the spare reserved on Y->Z for the
   two backups makes channel 3's establishment choose its alternative
   route through W up front, and when X crashes both backups activate.

   Run with:  dune exec examples/figure1.exe *)

let printf = Format.printf

(* Node layout (all links duplex, 2 Mbps = two 1 Mbps channels):

     S1 --- X --- D1        ch1: S1 -> D1   (primary via X)
     S2 --/   \-- D2        ch2: S2 -> D2   (primary via X)
     S1 --- Y --- Z --- D1  (the only detours, sharing Y->Z)
     S2 --/         \-- D2
     A --- Y,  Z --- B      ch3: A -> B     (via Y->Z ... or W)
     A --- W --- V --- B                                          *)

let s1 = 0 and s2 = 1 and d1 = 2 and d2 = 3

and x = 4 and y = 5 and z = 6

and a = 7 and b = 8 and w = 9 and v = 10

let name = [| "S1"; "S2"; "D1"; "D2"; "X"; "Y"; "Z"; "A"; "B"; "W"; "V" |]

let build_topology () =
  let topo = Net.Topology.create ~num_nodes:11 in
  let add p q = ignore (Net.Topology.add_duplex topo ~a:p ~b:q ~capacity:2.0) in
  add s1 x;
  add s2 x;
  add x d1;
  add x d2;
  add s1 y;
  add s2 y;
  add y z;
  add z d1;
  add z d2;
  add a y;
  add z b;
  add a w;
  add w v;
  add v b;
  topo

let pp_path topo ppf path =
  Format.pp_print_string ppf
    (String.concat " -> "
       (List.map (fun n -> name.(n)) (Net.Path.nodes topo path)))

let requests = [ (s1, d1); (s2, d2); (a, b) ]

let () =
  printf "=== Figure 1: blind rerouting ===@.@.";
  let topo = build_topology () in
  let rnmp = Rtchan.Rnmp.create topo in
  let bw1 = Rtchan.Traffic.of_bandwidth 1.0 in
  let chans =
    List.mapi
      (fun i (src, dst) ->
        let ch =
          Result.get_ok
            (Rtchan.Rnmp.establish rnmp ~src ~dst ~traffic:bw1
               ~qos:Rtchan.Qos.default)
        in
        printf "channel %d: %a@." (i + 1) (pp_path topo) ch.Rtchan.Channel.path;
        ch)
      requests
  in
  printf "@.node X crashes.  Each disrupted channel greedily re-routes:@.";
  List.iteri
    (fun i ch ->
      if Net.Path.uses_node topo ch.Rtchan.Channel.path x then begin
        Rtchan.Rnmp.teardown rnmp ch;
        let src = Rtchan.Channel.src ch and dst = Rtchan.Channel.dst ch in
        let link_ok id =
          let l = Net.Topology.link topo id in
          l.Net.Topology.src <> x && l.Net.Topology.dst <> x
          && Rtchan.Resource.can_reserve_primary (Rtchan.Rnmp.resources rnmp)
               id 1.0
        in
        let budget =
          Rtchan.Qos.max_hops Rtchan.Qos.default
            ~shortest:(Option.get (Routing.Shortest.shortest_hops topo ~src ~dst))
        in
        match
          Routing.Shortest.shortest_path ~link_ok ~max_hops:budget topo ~src ~dst
        with
        | Some p when
            Rtchan.Resource.reserve_primary_path (Rtchan.Rnmp.resources rnmp) p 1.0
          ->
          printf "  channel %d: re-routed over %a@." (i + 1) (pp_path topo) p
        | _ ->
          printf
            "  channel %d: NO QoS-feasible route left — connection lost \
             (the Figure 1 failure)@."
            (i + 1)
      end)
    chans;

  printf "@.=== Figure 2: the Backup Channel Protocol ===@.@.";
  let topo = build_topology () in
  let ns = Bcp.Netstate.create topo () in
  let conns =
    List.mapi
      (fun i (src, dst) ->
        let conn =
          match
            Bcp.Establish.establish ns ~conn_id:(i + 1)
              {
                Bcp.Establish.src;
                dst;
                traffic = bw1;
                qos = Rtchan.Qos.default;
                backups = 1;
                mux_degree = 1;
              }
          with
          | Ok c -> c
          | Error e ->
            Format.kasprintf failwith "conn %d: %a" (i + 1)
              Bcp.Establish.pp_reject e
        in
        printf "connection %d: primary %a@." (i + 1) (pp_path topo)
          conn.Bcp.Dconn.primary.Rtchan.Channel.path;
        printf "              backup  %a@." (pp_path topo)
          (List.hd conn.Bcp.Dconn.backups).Bcp.Dconn.path;
        conn)
      requests
  in
  let c3 = List.nth conns 2 in
  if Net.Path.uses_node topo c3.Bcp.Dconn.primary.Rtchan.Channel.path w then
    printf
      "@.note: the spare held on Y->Z for backups 1 and 2 pushed channel \
       3's primary through W —@.the paper's \"better solution is not to \
       set up channel 3 over the link from N5 to N6\".@.";
  let yz = Option.get (Net.Topology.find_link topo ~src:y ~dst:z) in
  printf "@.spare reserved on Y->Z: %.0f Mbps (both backups, not multiplexed: \
          their primaries share X)@."
    (Rtchan.Resource.spare (Bcp.Netstate.resources ns) yz);

  printf "@.node X crashes.  BCP activates the pre-established backups:@.";
  let result = Bcp.Recovery.simulate ns ~failed:[ Net.Component.Node x ] in
  List.iter
    (fun (id, outcome) ->
      match outcome with
      | Bcp.Recovery.Recovered serial ->
        printf "  connection %d: recovered instantly on backup #%d@." id serial
      | Bcp.Recovery.Mux_failure -> printf "  connection %d: mux failure@." id
      | Bcp.Recovery.No_healthy_backup ->
        printf "  connection %d: no healthy backup@." id)
    result.Bcp.Recovery.outcomes;
  printf "@.R_fast = %.0f%% — both transit connections survive, and channel \
          3 was never disturbed.@."
    (Bcp.Recovery.r_fast result)
