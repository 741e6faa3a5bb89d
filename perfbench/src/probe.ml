(* The probe phase of a traced run: on the workload's final network, a
   few static recoveries, one audited heartbeat episode whose trace is
   replayed into a fresh monitor, and a burst of connection lifecycles.
   It gives each layer the workload's own ops leave idle a measured
   time.  It runs after every check, as it changes the network. *)

type t = {
  report : Sim.Prof.report;
  churn : Ops.churn;
  feed_ns_per_event : float;
  violations : int;  (** of the episode and of its replay; must be 0 *)
}

let static_scenarios = 32
let burst_events = 2000

(* Clear of every id the workloads give their own connections. *)
let id_offset = 1_000_000

let run ~seed ns =
  let topo = Bcp.Netstate.topology ns in
  let rng = Sim.Prng.create (Sim.Prng.derive ~seed ~index:7) in
  let links =
    Array.init static_scenarios (fun _ ->
        Sim.Prng.int rng (Net.Topology.num_links topo))
  in
  let churn =
    Ops.churn ~id_offset ~seed ns (Ops.churn_params ~offered:8.0 ~bandwidth:32.0)
  in
  let (feed_ns, fed, violations), report =
    Layers.capture (fun () ->
        Array.iter
          (fun l ->
            let sc = Failures.Scenario.single_link topo l in
            Ops.span "bench.netstate.spare_pool" (fun () ->
                ignore (Bcp.Netstate.spare_pool ns));
            Ops.span "bench.recovery.affected_conns" (fun () ->
                ignore (Bcp.Recovery.affected_conns ns ~failed:sc.components));
            ignore (Ops.simulate ns sc))
          links;
        let context = Ops.context ns in
        let e =
          Ops.episode ~keep_trace:true ns context
            (Failures.Scenario.single_link topo links.(0))
        in
        let feed_ns, fed, replayed = Ops.replay context e.trace in
        for _ = 1 to burst_events do
          ignore (Ops.step churn)
        done;
        (* A network too lightly loaded to block anything still gets its
           rejection path timed, with requests no link can carry. *)
        if churn.blocked = 0 then begin
          let capacity = ref 0.0 in
          Net.Topology.iter_links topo (fun l ->
              capacity := Float.max !capacity l.Net.Topology.capacity);
          List.iteri
            (fun i r ->
              let t0 = Meter.now_ns () in
              ignore
                (Bcp.Establish.establish ns ~conn_id:(2 * id_offset + i)
                   (Ops.request_of r));
              Sim.Stats.Sample.add churn.reject_ns (Meter.now_ns () -. t0))
            (Workload.Generator.random_pairs rng
               ~bandwidth:(2.0 *. !capacity) topo ~count:16)
        end;
        (feed_ns, fed, e.violations + replayed))
  in
  {
    report;
    churn;
    feed_ns_per_event = (if fed = 0 then 0.0 else feed_ns /. float_of_int fed);
    violations;
  }
