(* Per-connection fault-tolerance QoS negotiation (Sections 3.1, 3.4).

   Clients specify only a required reliability P_r; BCP picks the largest
   (cheapest) multiplexing degree — adding backups when a single one
   cannot reach the target — and reports the achieved P_r back.  The
   example shows how the negotiated configuration hardens as the
   requirement tightens, and what each choice costs in spare bandwidth.

   Run with:  dune exec examples/negotiated_reliability.exe *)

let printf = Format.printf

let () =
  let topo = Net.Builders.torus ~rows:6 ~cols:6 ~capacity:155.0 in
  let ns = Bcp.Netstate.create ~lambda:1e-4 topo () in

  (* Background traffic so that multiplexing classes are non-trivial. *)
  let rng = Sim.Prng.create 31 in
  List.iteri
    (fun i (r : Workload.Generator.request) ->
      ignore
        (Bcp.Establish.establish ns ~conn_id:(1000 + i)
           { r with mux_degree = 5 }))
    (Workload.Generator.random_pairs rng topo ~count:250);
  printf "background: load %.2f%%, spare %.2f%%@.@."
    (Bcp.Netstate.network_load ns)
    (Bcp.Netstate.spare_fraction ns);

  let requirements = [ 0.999; 0.9999; 0.99999; 0.999999; 0.99999999 ] in
  printf "negotiating a 2 Mbps connection 0 -> 21 at increasing reliability \
          requirements:@.@.";
  printf "%-14s %-10s %-12s %-16s %-10s@." "required P_r" "backups"
    "mux degrees" "achieved P_r" "spare %";
  List.iteri
    (fun i pr_required ->
      match
        Bcp.Establish.establish_with_reliability ns ~conn_id:i ~src:0 ~dst:21
          ~traffic:(Rtchan.Traffic.of_bandwidth 2.0)
          ~qos:Rtchan.Qos.default ~pr_required ~max_backups:3
      with
      | Ok (conn, achieved) ->
        let lambda = Bcp.Netstate.lambda ns in
        let degrees =
          String.concat ","
            (List.map
               (fun b ->
                 string_of_int
                   (int_of_float (Float.round (b.Bcp.Dconn.nu /. lambda))))
               conn.Bcp.Dconn.backups)
        in
        printf "%-14.8f %-10d %-12s %-16.12f %-10.2f@." pr_required
          (List.length conn.Bcp.Dconn.backups)
          (if degrees = "" then "-" else degrees)
          achieved
          (Bcp.Netstate.spare_fraction ns);
        (* Keep the connection: later negotiations see its footprint. *)
        ()
      | Error (Bcp.Establish.Reliability_unreachable best) ->
        printf "%-14.8f unreachable (best achievable %.12f)@." pr_required best
      | Error e -> printf "%-14.8f rejected: %a@." pr_required Bcp.Establish.pp_reject e)
    requirements;

  printf
    "@.Tighter requirements buy smaller multiplexing degrees (more dedicated \
     spare) and eventually extra backup channels — exactly the \
     per-connection fault-tolerance control of Section 7.3.@."
