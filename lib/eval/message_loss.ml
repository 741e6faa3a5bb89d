type row = {
  fail_position : int;
  sent : int;
  delivered : int;
  lost : int;
  loss_window : float option;
  disruption : float option;
  mean_latency : float;
}

let pick_long_conn ns ~hops =
  let conns =
    List.sort
      (fun a b -> Int.compare a.Bcp.Dconn.id b.Bcp.Dconn.id)
      (Bcp.Netstate.dconns ns)
  in
  List.find_opt
    (fun c ->
      Net.Path.hops c.Bcp.Dconn.primary.Rtchan.Channel.path >= hops
      && Bcp.Dconn.standby_backups c <> [])
    conns

let run ?(seed = 42) network =
  let rate = 2000.0 in
  let est = Setup.build ~seed ~backups:1 ~mux_degree:3 network in
  let ns = est.Setup.ns in
  let conn =
    match pick_long_conn ns ~hops:6 with
    | Some c -> c
    | None -> (
      match pick_long_conn ns ~hops:4 with
      | Some c -> c
      | None -> failwith "Message_loss.run: no long connection found")
  in
  let plinks = Net.Path.links conn.Bcp.Dconn.primary.Rtchan.Channel.path in
  let t_fail = 0.050 in
  let t_stop = 0.150 in
  (* One independent data-plane simulation per failed-link position, not
     through [Episode.run]: the data plane must attach and schedule its
     stream before the fault, and [Episode.run] takes no set-up hook. *)
  Sim.Pool.map
    (fun (idx, link) ->
      let sim = Bcp.Simnet.create ns in
      let dp = Bcp.Dataplane.attach sim in
      Bcp.Dataplane.stream dp ~conn:conn.Bcp.Dconn.id ~rate ~start:0.0
        ~stop:t_stop ();
      Bcp.Simnet.fail_link sim ~at:t_fail link;
      Bcp.Simnet.run ~until:(t_stop +. 0.05) sim;
      Bcp.Simnet.finalize sim;
      let st = Bcp.Dataplane.stats dp ~conn:conn.Bcp.Dconn.id in
      let disruption =
        List.find_map
          (fun r ->
            if r.Bcp.Node.conn = conn.Bcp.Dconn.id then
              Option.map
                (fun resumed -> resumed -. r.Bcp.Node.failure_time)
                r.Bcp.Node.resumed_at
            else None)
          (Bcp.Simnet.records sim)
      in
      let loss_window =
        match (st.Bcp.Dataplane.first_loss, st.Bcp.Dataplane.last_loss) with
        | Some a, Some b -> Some (b -. a)
        | _ -> None
      in
      {
        fail_position = idx;
        sent = st.Bcp.Dataplane.sent;
        delivered = st.Bcp.Dataplane.delivered;
        lost = Bcp.Dataplane.loss_count st;
        loss_window;
        disruption;
        mean_latency =
          (if Sim.Stats.Sample.count st.Bcp.Dataplane.latencies = 0 then 0.0
           else Sim.Stats.Sample.mean st.Bcp.Dataplane.latencies);
      })
    (List.mapi (fun idx link -> (idx, link)) plinks)

let ms = function
  | None -> "-"
  | Some v -> Printf.sprintf "%.3f ms" (1000.0 *. v)

let report rows =
  let r =
    Report.make
      ~title:
        "Figure 8: message loss during failure recovery (per failed-link \
         position along the primary)"
      ~columns:
        [ "sent"; "delivered"; "lost"; "loss window"; "disruption"; "mean latency" ]
  in
  List.iter
    (fun row ->
      Report.add_row r
        ~label:(Printf.sprintf "link %d of path" row.fail_position)
        ~cells:
          [
            string_of_int row.sent;
            string_of_int row.delivered;
            string_of_int row.lost;
            ms row.loss_window;
            ms row.disruption;
            Printf.sprintf "%.3f ms" (1000.0 *. row.mean_latency);
          ])
    rows;
  r
