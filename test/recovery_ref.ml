(* Reference twin of [Bcp.Recovery]'s scenario engine: the list- and
   Set-based implementation it replaced, so the fuzzers in
   [test_recovery] can require full [result] equality against the
   stamped engine.  Slow by design: it copies every spare pool, builds a
   component set per candidate backup, and finds affected connections
   by scanning every registered connection, not from the netstate's
   indexes. *)

open Bcp
open Recovery

let failed_nodes failed =
  List.filter_map
    (function Net.Component.Node v -> Some v | Net.Component.Link _ -> None)
    failed

(* Per component in [failed] order, the connections whose current primary
   crosses it by ascending primary channel id, found by a scan of every
   registered connection, so the netstate's own primary index is not
   consulted. *)
let affected_conns ns ~failed =
  let dead_nodes = failed_nodes failed in
  let candidates =
    List.concat_map (Netstate_ref.conns_with_primary_on ns) failed
  in
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun conn ->
        if Hashtbl.mem seen conn.Dconn.id then false
        else begin
          Hashtbl.add seen conn.Dconn.id ();
          true
        end)
      candidates
  in
  let excluded, considered =
    List.partition
      (fun conn ->
        List.mem conn.Dconn.src dead_nodes || List.mem conn.Dconn.dst dead_nodes)
      distinct
  in
  (considered, List.length excluded)

let min_nu conn =
  List.fold_left (fun m b -> Float.min m b.Dconn.nu) infinity conn.Dconn.backups

let simulate ?(order = By_id) ns ~failed =
  let topo = Netstate.topology ns in
  let failed_set =
    List.fold_left (fun s c -> Net.Component.Set.add c s) Net.Component.Set.empty
      failed
  in
  let considered, excluded = affected_conns ns ~failed in
  let ordered =
    match order with
    | By_id -> List.sort (fun a b -> Int.compare a.Dconn.id b.Dconn.id) considered
    | Shuffled rng ->
      Sim.Prng.shuffle_list rng
        (List.sort (fun a b -> Int.compare a.Dconn.id b.Dconn.id) considered)
    | By_priority ->
      List.sort
        (fun a b ->
          match Float.compare (min_nu a) (min_nu b) with
          | 0 -> Int.compare a.Dconn.id b.Dconn.id
          | c -> c)
        considered
  in
  let pool = Netstate.spare_pool ns in
  let eps = 1e-9 in
  let path_healthy path =
    Net.Component.Set.is_empty
      (Net.Component.Set.inter (Net.Path.components topo path) failed_set)
  in
  let try_activate conn =
    let bw = Dconn.bandwidth conn in
    let healthy =
      List.filter
        (fun b -> b.Dconn.state = Dconn.Standby && path_healthy b.Dconn.path)
        conn.Dconn.backups
    in
    let rec attempt = function
      | [] -> if healthy = [] then No_healthy_backup else Mux_failure
      | b :: rest ->
        let links = Net.Path.links b.Dconn.path in
        if List.for_all (fun l -> pool.(l) +. eps >= bw) links then begin
          List.iter (fun l -> pool.(l) <- pool.(l) -. bw) links;
          Recovered b.Dconn.serial
        end
        else attempt rest
    in
    attempt healthy
  in
  let lambda = Netstate.lambda ns in
  let outcomes = List.map (fun conn -> (conn, try_activate conn)) ordered in
  let recovered =
    List.length (List.filter (function _, Recovered _ -> true | _ -> false) outcomes)
  in
  let mux_failures =
    List.length (List.filter (fun (_, o) -> o = Mux_failure) outcomes)
  in
  let no_healthy =
    List.length (List.filter (fun (_, o) -> o = No_healthy_backup) outcomes)
  in
  let degree_tbl = Hashtbl.create 8 in
  List.iter
    (fun (conn, o) ->
      let d = Dconn.mux_degree conn ~lambda in
      let aff, rec_ = Option.value ~default:(0, 0) (Hashtbl.find_opt degree_tbl d) in
      let rec_ = match o with Recovered _ -> rec_ + 1 | _ -> rec_ in
      Hashtbl.replace degree_tbl d (aff + 1, rec_))
    outcomes;
  let per_degree =
    List.sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (Hashtbl.fold (fun d v acc -> (d, v) :: acc) degree_tbl [])
  in
  {
    affected = List.length ordered;
    excluded;
    recovered;
    mux_failures;
    no_healthy_backup = no_healthy;
    outcomes = List.map (fun (c, o) -> (c.Dconn.id, o)) outcomes;
    per_degree;
  }
