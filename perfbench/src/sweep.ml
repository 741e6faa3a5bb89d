(* A workload whose ops are failure scenarios answered against one
   set-up network that they leave unchanged: every single-link and
   single-node scenario, in a seeded order whose every prefix holds the
   same mix of the two, cycled for as long as the run lasts. *)

type 'st spec = {
  name : string;
  build : seed:int -> unit -> 'st;
  netstate : 'st -> Bcp.Netstate.t;
  record : 'st -> string;
  exec : 'st -> Failures.Scenario.t -> string * bool * (string * int) list;
      (** the op's record, whether it passed its own checks, and its
          per-op counts *)
  slice : int;  (** ops re-run in the other tracing mode *)
  facts : (string * string) list;
}

let run spec (cfg : Harness.cfg) =
  let c = Harness.checks () in
  let s = Harness.setups cfg ~build:(spec.build ~seed:cfg.seed) ~record:spec.record in
  Harness.check_setup c cfg ~name:spec.name s;
  let st = s.state in
  let ns = spec.netstate st in
  let topo = Bcp.Netstate.topology ns in
  let scs = Ops.scenarios topo in
  let links = Net.Topology.num_links topo in
  let order =
    Ops.stratified_order
      ~seed:(Sim.Prng.derive ~seed:cfg.seed ~index:1)
      ~links ~nodes:(Array.length scs - links)
  in
  let n = Array.length order in
  let scenario i = scs.(order.(i mod n)) in
  let exec i =
    match spec.exec st (scenario i) with
    | r -> r
    | exception e -> (Harness.exn_record e, false, [])
  in
  let records = Meter.vec "" in
  let tally = Hashtbl.create 8 in
  let op i =
    let r, ok, counts = exec i in
    if not ok then Harness.fail_op c (Printf.sprintf "op %d (%s): %s" i (scenario i).label r);
    List.iter
      (fun (k, v) ->
        Hashtbl.replace tally k (v + Option.value ~default:0 (Hashtbl.find_opt tally k)))
      counts;
    Meter.push records r
  in
  let seconds, min_ops, max_ops =
    if cfg.record then (0.0, n, n) else (cfg.seconds, Harness.min_ops, max_int)
  in
  let phase, ops_report = Harness.timed_phase cfg ~seconds ~min_ops ~max_ops op in
  let rss_mb = Meter.peak_rss_mb () in
  let ops = records.len in
  if cfg.record then
    Harness.save_expected spec.name
      (("setup", s.record)
      :: List.map snd
           (List.sort compare
              (List.init ops (fun i ->
                   (order.(i), ((scenario i).label, records.items.(i)))))))
  else if cfg.seed = Harness.default_seed then begin
    let expected = Harness.load_expected spec.name in
    for i = 0 to ops - 1 do
      let key = (scenario i).label in
      match Hashtbl.find_opt expected key with
      | Some r when r = records.items.(i) -> ()
      | Some r ->
        Harness.fail_op c
          (Printf.sprintf "op %d (%s): %s, recorded %s" i key records.items.(i) r)
      | None -> Harness.fail_op c (Printf.sprintf "op %d (%s): no recorded result" i key)
    done
  end;
  (* Self-test: the first ops again, in the other tracing mode. *)
  let slice = min ops spec.slice in
  let rerun_ns = ref 0.0 in
  Harness.other_mode cfg (fun () ->
      for i = 0 to slice - 1 do
        let t0 = Meter.now_ns () in
        let r, _, _ = exec i in
        rerun_ns := !rerun_ns +. (Meter.now_ns () -. t0);
        if r <> records.items.(i) then
          Harness.fail_op c
            (Printf.sprintf "op %d (%s): %s, in the other tracing mode %s" i
               (scenario i).label records.items.(i) r)
      done);
  let layers =
    match (ops_report, s.report) with
    | Some ops_r, Some setup_r ->
      let mux_entries = Ops.mux_entries ns in
      let probe = Probe.run ~seed:cfg.seed ns in
      if probe.violations > 0 then Harness.problem c "probe episode tripped the monitor";
      let traced_ns = Meter.sum (Array.sub phase.op_ns 0 slice) in
      Layers.compute
        {
          sources = { ops = ops_r; setup = setup_r; probe = probe.report };
          ops;
          phase;
          setup_gc = s.gc;
          mux_entries;
          establish = probe.churn;
          blocked_pct =
            100.0 *. float_of_int probe.churn.blocked
            /. float_of_int (max 1 probe.churn.arrivals);
          per_op = Hashtbl.fold (fun k v acc -> (k, float_of_int v) :: acc) tally [];
          feed_ns_per_event = probe.feed_ns_per_event;
          overhead_pct = 100.0 *. ((traced_ns /. !rerun_ns) -. 1.0);
        }
    | _ -> []
  in
  {
    Harness.setup_s = s.times;
    phase;
    rss_mb;
    failed = c.failed;
    problems = List.rev c.problems;
    layers;
    facts = ("scenarios", string_of_int n) :: spec.facts;
  }
