(* A failure storm: components crash and are repaired over a simulated
   hour following Poisson processes, while the event-driven BCP daemons
   keep reporting failures, activating backups, repairing channels through
   the rejoin handshake, and tearing down what cannot be saved.

   Run with:  dune exec examples/failure_storm.exe *)

let printf = Format.printf

let () =
  let topo = Net.Builders.torus ~rows:6 ~cols:6 ~capacity:155.0 in
  let ns = Bcp.Netstate.create topo () in

  (* 300 one-Mbps connections with one backup each at mux degree 3. *)
  let rng = Sim.Prng.create 7 in
  let established = ref 0 in
  List.iteri
    (fun i (r : Workload.Generator.request) ->
      match Bcp.Establish.establish ns ~conn_id:i { r with mux_degree = 3 } with
      | Ok _ -> incr established
      | Error _ -> ())
    (Workload.Generator.random_pairs rng topo ~count:300);
  printf "established %d connections; load %.2f%%, spare %.2f%%@." !established
    (Bcp.Netstate.network_load ns)
    (Bcp.Netstate.spare_fraction ns);

  (* A harsh hour: with per-component MTBF of 25000 s, roughly twenty of
     the ~160 components fail during the hour, each repaired after about
     two minutes.  The rejoin timer (5 s) is deliberately shorter than the
     repairs, so most broken channels are torn down, while components that
     bounce quickly bring their channels back as backups. *)
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rejoin_timeout = 5.0;
      rejoin_retry = 0.5;
    }
  in
  let horizon = 3600.0 in
  let events =
    Failures.Process.generate
      (Sim.Prng.create 99)
      topo ~horizon ~mtbf:25_000.0 ~mttr:120.0
  in
  (* Each failure, with the repair of the same component that follows
     it. *)
  let rec faults = function
    | [] -> []
    | { Failures.Process.kind = `Repair; _ } :: rest -> faults rest
    | { Failures.Process.kind = `Fail; component; time } :: rest ->
      let repair_at =
        List.find_map
          (fun (e : Failures.Process.event) ->
            if e.kind = `Repair && e.component = component then Some e.time
            else None)
          rest
      in
      { Failures.Plan.component; fail_at = time; repair_at } :: faults rest
  in
  let plan =
    {
      Failures.Plan.label = "storm";
      faults = faults events;
      impair = Failures.Impair.make ();
      gray_links = [];
      perturb = Sim.Schedule.disabled;
    }
  in
  printf "injecting %d failures (%d events total) over %.0f s...@."
    (List.length plan.faults) (List.length events) horizon;

  let episode =
    (* [~obs] turns the typed event stream on; the collector itself is
       not read. *)
    Eval.Episode.run ~obs:(Eval.Telemetry.create ~events:false) ~config
      ~until:(horizon +. 60.0) ns plan
  in

  (* Aggregate what happened. *)
  let records = episode.Eval.Episode.records in
  let disruptions = Sim.Stats.Sample.create () in
  List.iter (fun (_, d) -> Sim.Stats.Sample.add disruptions d) episode.recovered;
  printf "@.connections whose primary was hit: %d@." (List.length records);
  printf "  fast-recovered on a backup: %d@." (List.length episode.recovered);
  printf "  lost (needed re-establishment): %d@."
    (List.length episode.unrecovered);
  printf "  end node crashed (unrecoverable by design): %d@."
    (List.length records - List.length episode.affected);
  if Sim.Stats.Sample.count disruptions > 0 then
    printf
      "service disruption: mean %.3f ms, median %.3f ms, p99 %.3f ms, max \
       %.3f ms@."
      (1000.0 *. Sim.Stats.Sample.mean disruptions)
      (1000.0 *. Sim.Stats.Sample.median disruptions)
      (1000.0 *. Sim.Stats.Sample.percentile disruptions 99.0)
      (1000.0 *. Sim.Stats.Sample.max disruptions);

  let count cause =
    List.length
      (List.filter
         (function
           | _, Sim.Event.Chan_transition { cause = c; _ } -> c = cause
           | _ -> false)
         (Sim.Trace.events episode.trace))
  in
  printf "@.protocol activity:@.";
  printf "  RCC messages sent:        %d@." episode.rcc_sent;
  printf "  control msgs delivered:   %d@." episode.rcc_delivered;
  printf "  channel repairs (rejoin): %d@." (count "rejoin");
  printf "  soft-state teardowns:     %d@." (count "expire");
  printf "  closures:                 %d@." (count "closure");
  printf "  multiplexing failures:    %d@." (count "mux-fail")
