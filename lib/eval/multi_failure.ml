type config = { backups : int; mux_degree : int }

let configs =
  [
    { backups = 1; mux_degree = 1 };
    { backups = 1; mux_degree = 3 };
    { backups = 1; mux_degree = 6 };
    { backups = 2; mux_degree = 6 };
  ]

let sweep ?(seed = 42) network =
  let ks = [ 1; 2; 3; 4; 5; 6; 7; 8 ] and scenarios_per_k = 100 in
  let built =
    Sim.Pool.map
      (fun c ->
        let est =
          Setup.build ~seed ~backups:c.backups ~mux_degree:c.mux_degree network
        in
        (c, est))
      configs
  in
  let columns =
    List.map
      (fun (c, est) ->
        if est.Setup.rejected > 0 then
          Printf.sprintf "b=%d mux=%d (rej %d)" c.backups c.mux_degree
            est.Setup.rejected
        else Printf.sprintf "b=%d mux=%d" c.backups c.mux_degree)
      built
  in
  let report =
    Report.make
      ~title:
        (Printf.sprintf
           "R_fast under k simultaneous link failures (%d scenarios per k) — %s"
           scenarios_per_k
           (Setup.network_label network))
      ~columns
  in
  Report.add_row report ~label:"spare bandwidth"
    ~cells:(List.map (fun (_, est) -> Report.pct est.Setup.spare) built);
  List.iter
    (fun k ->
      let cells =
        List.map
          (fun (_, est) ->
            let ns = est.Setup.ns in
            let topo = Bcp.Netstate.topology ns in
            let rng = Sim.Prng.create (seed + (1000 * k)) in
            (* Draw the random scenarios sequentially (one generator
               feeds all of them, in a fixed order), then simulate them
               on the pool. *)
            let scenarios = ref [] in
            for _ = 1 to scenarios_per_k do
              scenarios :=
                Failures.Scenario.random_links rng topo ~count:k :: !scenarios
            done;
            let scenarios = List.rev !scenarios in
            let results =
              Sim.Pool.map
                (fun sc ->
                  Bcp.Recovery.simulate ns
                    ~failed:sc.Failures.Scenario.components)
                scenarios
            in
            let affected = ref 0 and recovered = ref 0 in
            List.iter
              (fun r ->
                affected := !affected + r.Bcp.Recovery.affected;
                recovered := !recovered + r.Bcp.Recovery.recovered)
              results;
            Report.pct
              (if !affected = 0 then 100.0 else Sim.Stats.ratio !recovered !affected))
          built
      in
      Report.add_row report ~label:(Printf.sprintf "k = %d" k) ~cells)
    ks;
  report

(* ---------- event-driven variant ---------- *)

(* The analytic [Bcp.Recovery.simulate] path above has no event stream;
   this variant runs every k-link burst through the event-driven protocol
   simulator instead (one configuration, reduced defaults), so audited
   traces exist for burst failures too. *)
let simulate ?obs ?(seed = 42) network =
  let ks = [ 1; 2; 4 ] and scenarios_per_k = 8 in
  let backups = 1 and mux_degree = 3 in
  let est = Setup.build ?obs ~seed ~backups ~mux_degree network in
  let ns = est.Setup.ns in
  let topo = Bcp.Netstate.topology ns in
  let report =
    Report.make
      ~title:
        (Printf.sprintf
           "R_fast under k simultaneous link failures (event-driven, b=%d \
            mux=%d, %d scenarios per k) — %s"
           backups mux_degree scenarios_per_k
           (Setup.network_label network))
      ~columns:[ "affected"; "recovered"; "R_fast" ]
  in
  let t_fail = 0.01 in
  List.iteri
    (fun ki k ->
      let rng = Sim.Prng.create (seed + (1000 * k)) in
      let scenarios =
        List.init scenarios_per_k (fun _ ->
            Failures.Scenario.random_links rng topo ~count:k)
      in
      let observe sc =
        Episode.run ?obs ~config:Bcp.Protocol.default_config
          ~until:(t_fail +. 0.25) ns
          (Failures.Plan.of_scenario ~at:t_fail sc)
      in
      let affected = ref 0 and recovered = ref 0 in
      List.iteri
        (fun si (o : Episode.outcome) ->
          affected := !affected + List.length o.affected;
          recovered := !recovered + List.length o.recovered;
          Telemetry.add obs ~tag:((ki * scenarios_per_k) + si) o.run)
        (Sim.Pool.map observe scenarios);
      Report.add_row report
        ~label:(Printf.sprintf "k = %d" k)
        ~cells:
          [
            string_of_int !affected;
            string_of_int !recovered;
            Report.pct
              (if !affected = 0 then 100.0
               else Sim.Stats.ratio !recovered !affected);
          ])
    ks;
  report
