type model = Single_link | Single_node | Double_node of int option

let model_label = function
  | Single_link -> "1 link failure"
  | Single_node -> "1 node failure"
  | Double_node _ -> "2 node failures"

type measurement = {
  label : string;
  scenarios : int;
  affected : int;
  recovered : int;
  mux_failures : int;
  no_backup : int;
  excluded : int;
  per_degree : (int * (int * int)) list;
}

let r_fast m = if m.affected = 0 then 100.0 else Sim.Stats.ratio m.recovered m.affected

let r_fast_deg m degree =
  match List.assoc_opt degree m.per_degree with
  | None | Some (0, _) -> 100.0
  | Some (affected, recovered) -> Sim.Stats.ratio recovered affected

let scenarios_of ?(seed = 7) ns model =
  let topo = Bcp.Netstate.topology ns in
  match model with
  | Single_link -> Failures.Scenario.all_single_links topo
  | Single_node -> Failures.Scenario.all_single_nodes topo
  | Double_node None -> Failures.Scenario.all_double_nodes topo
  | Double_node (Some n) ->
    Failures.Scenario.sampled_double_nodes (Sim.Prng.create seed) topo ~count:n

let merge_degrees a b =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (d, (x, y)) -> Hashtbl.replace tbl d (x, y)) a;
  List.iter
    (fun (d, (x, y)) ->
      let x0, y0 = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl d) in
      Hashtbl.replace tbl d (x0 + x, y0 + y))
    b;
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun d v acc -> (d, v) :: acc) tbl [])

let measure ?seed ?(order = Bcp.Recovery.By_id) ns model =
  let scenarios = scenarios_of ?seed ns model in
  let simulate sc =
    Bcp.Recovery.simulate ~order ns ~failed:sc.Failures.Scenario.components
  in
  (* The recovery engine only reads the established netstate (activations
     draw from a per-domain overlay on the spare pools), so scenarios run
     on the domain pool; folding the per-scenario results in index order
     is byte-identical to the sequential sweep.  [Shuffled] threads one
     generator across scenarios and must stay sequential. *)
  let results =
    match order with
    | Bcp.Recovery.Shuffled _ -> List.map simulate scenarios
    | Bcp.Recovery.By_id | Bcp.Recovery.By_priority ->
      Sim.Pool.map simulate scenarios
  in
  let acc =
    List.fold_left
      (fun acc r ->
        {
          acc with
          affected = acc.affected + r.Bcp.Recovery.affected;
          recovered = acc.recovered + r.Bcp.Recovery.recovered;
          mux_failures = acc.mux_failures + r.Bcp.Recovery.mux_failures;
          no_backup = acc.no_backup + r.Bcp.Recovery.no_healthy_backup;
          excluded = acc.excluded + r.Bcp.Recovery.excluded;
          per_degree = merge_degrees acc.per_degree r.Bcp.Recovery.per_degree;
        })
      {
        label = model_label model;
        scenarios = List.length scenarios;
        affected = 0;
        recovered = 0;
        mux_failures = 0;
        no_backup = 0;
        excluded = 0;
        per_degree = [];
      }
      results
  in
  acc

let standard_models ?double_sample () =
  [ Single_link; Single_node; Double_node double_sample ]

let degrees = Setup.paper_degrees
let degree_columns = List.map (fun d -> Printf.sprintf "mux=%d" d) degrees

let table_same_degree ?(seed = 42) ?double_sample network ~backups =
  let runs =
    (* Establishment passes for distinct degrees are independent (each
       builds its own topology, netstate and generator). *)
    Sim.Pool.map
      (fun degree ->
        let est = Setup.build ~seed ~backups ~mux_degree:degree network in
        (* The paper's N/A: "the total bandwidth requirement had exceeded
           the network capacity before establishing all connections".  A
           sprinkle of rejections (< 2.5%) still yields a representative
           table; mark the column instead of blanking it. *)
        let usable =
          40 * est.Setup.rejected
          < est.Setup.established + est.Setup.rejected
        in
        if usable then (degree, Some est.Setup.ns, est) else (degree, None, est))
      degrees
  in
  let columns =
    List.map2
      (fun degree (_, _, est) ->
        if est.Setup.rejected > 0 then
          Printf.sprintf "mux=%d (rej %d)" degree est.Setup.rejected
        else Printf.sprintf "mux=%d" degree)
      degrees runs
  in
  let report =
    Report.make
      ~title:
        (Printf.sprintf "R_fast, same multiplexing degrees — %d backup(s), %s"
           backups
           (Setup.network_label network))
      ~columns
  in
  Report.add_row report ~label:"Spare bandwidth"
    ~cells:
      (List.map
         (fun (_, ns, est) ->
           match ns with
           | None -> "N/A"
           | Some _ -> Report.pct est.Setup.spare)
         runs);
  List.iter
    (fun model ->
      Report.add_row report ~label:(model_label model)
        ~cells:
          (List.map
             (fun (_, ns, _) ->
               match ns with
               | None -> "N/A"
               | Some ns -> Report.pct (r_fast (measure ~seed ns model)))
             runs))
    (standard_models ?double_sample ());
  report

let table_mixed_degrees ?(seed = 42) ?double_sample network ~backups =
  (* With mixed degrees the spare sizing only counts conflicts against
     no-greater-ν backups (Section 3.2), so per-connection control relies
     on priority-based activation (Section 4.3): smaller-ν connections
     claim the pools first.  The paper's Table 2 shape (mux=1 keeps its
     guarantee while mux=6 degrades) only emerges under that ordering. *)
  let est = Setup.build_mixed ~seed ~backups network in
  let report =
    Report.make
      ~title:
        (Printf.sprintf
           "R_fast, mixed multiplexing degrees — %d backup(s), %s (spare %s, \
            rejected %d)"
           backups
           (Setup.network_label network)
           (Report.pct est.Setup.spare) est.Setup.rejected)
      ~columns:degree_columns
  in
  List.iter
    (fun model ->
      let m = measure ~seed ~order:Bcp.Recovery.By_priority est.Setup.ns model in
      Report.add_row report ~label:(model_label model)
        ~cells:(List.map (fun d -> Report.pct (r_fast_deg m d)) degrees))
    (standard_models ?double_sample ());
  report

let table_brute_force ?(seed = 42) ?double_sample network =
  (* Per-link uniform spare equal to the average the proposed scheme
     reserved at each degree (Section 7.4). *)
  let proposed =
    Sim.Pool.map
      (fun d -> (d, Setup.build ~seed ~backups:1 ~mux_degree:d network))
      degrees
  in
  let report =
    Report.make
      ~title:
        (Printf.sprintf "R_fast, brute-force multiplexing — single backup, %s"
           (Setup.network_label network))
      ~columns:degree_columns
  in
  Report.add_row report ~label:"Spare bandwidth"
    ~cells:(List.map (fun (_, est) -> Report.pct est.Setup.spare) proposed);
  let brute_runs =
    Sim.Pool.map
      (fun (d, est) ->
        let topo = Setup.topology_of network in
        let resources = Bcp.Netstate.resources est.Setup.ns in
        let per_link =
          Rtchan.Resource.total_spare resources
          /. float_of_int (Net.Topology.num_links topo)
        in
        let ns =
          Bcp.Netstate.create ~policy:(Bcp.Netstate.Brute_force per_link) topo ()
        in
        let rng = Sim.Prng.create seed in
        let requests =
          Workload.Generator.shuffled rng
            (Workload.Generator.all_pairs ~backups:1 ~mux_degree:d topo)
        in
        let est' = Setup.establish_all ns requests in
        (d, est'))
      proposed
  in
  List.iter
    (fun model ->
      Report.add_row report ~label:(model_label model)
        ~cells:
          (List.map
             (fun (_, est) ->
               Report.pct (r_fast (measure ~seed est.Setup.ns model)))
             brute_runs))
    (standard_models ?double_sample ());
  report
