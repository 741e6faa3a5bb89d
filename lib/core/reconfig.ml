type summary = {
  promoted : int;
  torn_down : int;
  closed_backups : int;
  replacements_added : int;
  replacements_failed : int;
  unrecovered : int;
}

let close_backup ns conn (b : Dconn.backup) state =
  if b.Dconn.state = Dconn.Standby || b.Dconn.state = Dconn.Activated then begin
    b.Dconn.state <- state;
    Netstate.unregister_backup ns conn b
  end

(* Make room for [bw] of dedicated primary bandwidth on [link] by closing
   spare-driving backups, most-multiplexed (largest ν) first — the paper's
   "some of the remaining backups have to be closed", resolved in favour of
   the less critical connections. *)
let shrink_spare_until_fits ns ~link ~bw =
  let res = Netstate.resources ns in
  let mux = Netstate.mux ns in
  let closed = ref 0 in
  let victim () =
    let candidates =
      List.filter_map
        (fun bid ->
          (* map bid back to (conn, backup) through the registry *)
          List.find_opt
            (fun (_, b) -> b.Dconn.bid = bid)
            (Netstate.backups_using ns (Net.Component.Link link)))
        (Mux.max_requirement_victims mux ~link)
    in
    match
      List.sort
        (fun (_, a) (_, b) -> Float.compare b.Dconn.nu a.Dconn.nu)
        candidates
    with
    | v :: _ -> Some v
    | [] -> None
  in
  let rec go guard =
    if Rtchan.Resource.can_reserve_primary res link bw then true
    else if guard = 0 then false
    else
      match victim () with
      | None -> false
      | Some (conn, b) ->
        close_backup ns conn b Dconn.Closed;
        incr closed;
        go (guard - 1)
  in
  let ok = go 256 in
  (ok, !closed)

let promote ns conn (b : Dconn.backup) =
  (* Release the failed primary's reservation... *)
  Netstate.release_primary ns conn;
  (* ...free the backup's own spare share... *)
  Netstate.unregister_backup ns conn b;
  b.Dconn.state <- Dconn.Activated;
  (* ...and dedicate bandwidth to it on every link, closing other backups
     if the remaining spare requirement leaves no room. *)
  let bw = Dconn.bandwidth conn in
  let closed_total = ref 0 in
  let room =
    List.for_all
      (fun link ->
        let ok, closed = shrink_spare_until_fits ns ~link ~bw in
        closed_total := !closed_total + closed;
        ok)
      (Net.Path.links b.Dconn.path)
  in
  if not room then (false, !closed_total)
  else
    match
      Rtchan.Rnmp.establish_on_path (Netstate.rnmp ns) ~path:b.Dconn.path
        ~traffic:conn.Dconn.traffic ~qos:conn.Dconn.qos
    with
    | Error _ -> (false, !closed_total)
    | Ok ch ->
      Netstate.replace_primary ns conn ch;
      (true, !closed_total)

let commit ?(restore_protection = true) ns ~failed ~result =
  let promoted = ref 0 and torn_down = ref 0 and closed = ref 0 in
  let unrecovered = ref 0 in
  (* 1. Close every backup whose path crosses a failed component. *)
  List.iter
    (fun comp ->
      List.iter
        (fun (conn, b) ->
          if b.Dconn.state = Dconn.Standby then begin
            close_backup ns conn b Dconn.Broken;
            incr closed
          end)
        (Netstate.backups_using ns comp))
    failed;
  (* 2. Apply per-connection outcomes. *)
  List.iter
    (fun (conn_id, outcome) ->
      match Netstate.find ns conn_id with
      | None -> ()
      | Some conn -> (
        match outcome with
        | Recovery.Recovered serial -> (
          match Dconn.find_backup conn ~serial with
          | None -> ()
          | Some b ->
            let ok, closed_here = promote ns conn b in
            closed := !closed + closed_here;
            if ok then begin
              incr promoted;
              incr torn_down
            end
            else begin
              (* Could not dedicate bandwidth after all: the connection
                 needs re-establishment. *)
              incr unrecovered;
              Netstate.remove_dconn ns conn_id
            end)
        | Recovery.Mux_failure | Recovery.No_healthy_backup ->
          incr unrecovered;
          incr torn_down;
          Netstate.remove_dconn ns conn_id))
    result.Recovery.outcomes;
  (* 3. Connections with a failed end node are unrecoverable by definition:
     release everything they hold. *)
  let dead_nodes =
    List.filter_map
      (function Net.Component.Node v -> Some v | Net.Component.Link _ -> None)
      failed
  in
  List.iter
    (fun conn ->
      if List.mem conn.Dconn.src dead_nodes || List.mem conn.Dconn.dst dead_nodes
      then begin
        incr unrecovered;
        Netstate.remove_dconn ns conn.Dconn.id
      end)
    (Netstate.dconns ns);
  (* 4. Re-provision protection for surviving connections. *)
  let replacements_added = ref 0 and replacements_failed = ref 0 in
  if restore_protection then begin
    let lambda = Netstate.lambda ns in
    List.iter
      (fun conn ->
        let degree =
          match conn.Dconn.backups with
          | [] -> 0
          | b :: _ ->
            int_of_float (Float.round (b.Dconn.nu /. lambda))
        in
        let rec top_up deficit =
          if deficit > 0 then begin
            match
              Establish.add_backup ~avoid_components:failed ns conn
                ~mux_degree:degree
            with
            | Ok _ ->
              incr replacements_added;
              top_up (deficit - 1)
            | Error _ -> incr replacements_failed
          end
        in
        if conn.Dconn.backups <> [] || conn.Dconn.target_backups > 0 then
          top_up (Dconn.standby_deficit conn))
      (Netstate.dconns ns)
  end;
  {
    promoted = !promoted;
    torn_down = !torn_down;
    closed_backups = !closed;
    replacements_added = !replacements_added;
    replacements_failed = !replacements_failed;
    unrecovered = !unrecovered;
  }

let protection_deficit ns =
  List.filter_map
    (fun conn ->
      let d = Dconn.standby_deficit conn in
      if d > 0 then Some (conn.Dconn.id, d) else None)
    (List.sort
       (fun a b -> Int.compare a.Dconn.id b.Dconn.id)
       (Netstate.dconns ns))
