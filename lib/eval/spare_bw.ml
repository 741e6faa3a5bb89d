type series = {
  degree : int;
  rejected : int;
  points : (float * float) list;
}

let run ?(seed = 42) network ~backups =
  (* One independent establishment pass per degree: each runs on its own
     netstate, so the sweep maps over the domain pool. *)
  Sim.Pool.map
    (fun degree ->
      let topo = Setup.topology_of network in
      let ns = Bcp.Netstate.create topo () in
      let rng = Sim.Prng.create seed in
      let requests =
        Workload.Generator.shuffled rng
          (Workload.Generator.all_pairs ~backups ~mux_degree:degree topo)
      in
      let points = ref [] in
      let est =
        Setup.establish_all
          ~on_progress:(fun ~established:_ ~load ~spare ->
            points := (load, spare) :: !points)
          ns requests
      in
      let points = List.rev ((est.Setup.load, est.Setup.spare) :: !points) in
      { degree; rejected = est.Setup.rejected; points })
    (0 :: Setup.paper_degrees)

let report network ~backups series =
  let columns =
    List.map
      (fun s ->
        if s.rejected > 0 then Printf.sprintf "mux=%d(rej %d)" s.degree s.rejected
        else Printf.sprintf "mux=%d" s.degree)
      series
  in
  let r =
    Report.make
      ~title:
        (Printf.sprintf
           "Figure 9: spare bandwidth (%%) vs network load — %d backup(s), %s"
           backups
           (Setup.network_label network))
      ~columns
  in
  let depth = List.fold_left (fun m s -> max m (List.length s.points)) 0 series in
  for i = 0 to depth - 1 do
    (* Label rows by the load of the first series that has this point. *)
    let load =
      List.find_map
        (fun s -> Option.map fst (List.nth_opt s.points i))
        series
    in
    let label =
      match load with
      | Some l -> Printf.sprintf "load %5.2f%%" l
      | None -> Printf.sprintf "step %d" i
    in
    Report.add_row r ~label
      ~cells:
        (List.map
           (fun s ->
             match List.nth_opt s.points i with
             | Some (_, spare) -> Report.pct spare
             | None -> "-")
           series)
  done;
  r
