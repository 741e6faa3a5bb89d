(* The paper's network under audited event-driven recovery: each op
   builds a heartbeat-detected [Bcp.Simnet] with a [Sim.Monitor] over
   the 8x8 torus, fails one link or node and runs to a fixed horizon. *)

type state = { est : Eval.Setup.establishment; context : Sim.Monitor.context }

let spec =
  {
    Sweep.name = "recover8";
    build =
      (fun ~seed () ->
        let est = Eval.Setup.build ~seed ~backups:1 ~mux_degree:3 Eval.Setup.Torus8 in
        { est; context = Ops.context est.ns });
    netstate = (fun st -> st.est.ns);
    record =
      (fun st ->
        Ops.setup_record ~established:st.est.established
          ~rejected:st.est.rejected st.est.ns);
    exec =
      (fun st sc ->
        let e = Ops.episode st.est.ns st.context sc in
        ( Ops.episode_record e,
          e.violations = 0,
          [
            ("recovery.affected_per_op",
              List.length (List.filter (fun (r : Bcp.Simnet.record) -> not r.excluded) e.records));
            ("rcc.sent_per_op", e.rcc_sent);
            ("rcc.delivered_per_op", e.rcc_delivered);
            ("rcc.dropped_per_op", e.rcc_dropped);
            ("detector.confirms_per_op", e.confirms);
            ("detector.false_recoveries_per_op", e.false_recoveries);
            ("monitor.events_per_op", e.monitor_events);
          ] ));
    slice = 20;
    facts = [ ("horizon_s", Printf.sprintf "%g" Ops.horizon) ];
  }

let run = Sweep.run spec
