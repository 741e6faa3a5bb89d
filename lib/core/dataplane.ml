type stats = {
  conn : int;
  sent : int;
  delivered : int;
  lost_no_channel : int;
  lost_dead_component : int;
  lost_not_activated : int;
  first_loss : float option;
  last_loss : float option;
  latencies : Sim.Stats.Sample.t;
}

type stream_state = {
  s_conn : int;
  mutable s_sent : int;
  mutable s_delivered : int;
  mutable s_no_channel : int;
  mutable s_dead : int;
  mutable s_not_activated : int;
  mutable s_first_loss : float option;
  mutable s_last_loss : float option;
  s_latencies : Sim.Stats.Sample.t;
}

type t = {
  sim : Simnet.t;
  schedulers : Rtchan.Link_scheduler.t array; (* one transmitter per link *)
  streams : (int, stream_state) Hashtbl.t;
}

let attach sim =
  let topo = Netstate.topology (Simnet.netstate sim) in
  {
    sim;
    schedulers =
      Array.init (Net.Topology.num_links topo) (fun l ->
          Rtchan.Link_scheduler.create
            ~capacity:(Net.Topology.link topo l).Net.Topology.capacity);
    streams = Hashtbl.create 8;
  }

let state_for t conn =
  match Hashtbl.find_opt t.streams conn with
  | Some s -> s
  | None ->
    let s =
      {
        s_conn = conn;
        s_sent = 0;
        s_delivered = 0;
        s_no_channel = 0;
        s_dead = 0;
        s_not_activated = 0;
        s_first_loss = None;
        s_last_loss = None;
        s_latencies = Sim.Stats.Sample.create ();
      }
    in
    Hashtbl.replace t.streams conn s;
    s

let record_loss s ~sent_at =
  (match s.s_first_loss with None -> s.s_first_loss <- Some sent_at | Some _ -> ());
  s.s_last_loss <- Some sent_at

(* Forward one message across the remaining hops of [path].  The channel
   must be activated (state P) at every node it visits; the link it
   crosses must be alive when it is clocked out. *)
let rec hop t s ~conn ~serial ~path ~sent_at ~bits ~pos =
  let ns = Simnet.netstate t.sim in
  let topo = Netstate.topology ns in
  let engine = Simnet.engine t.sim in
  let nodes = Array.of_list (Net.Path.nodes topo path) in
  let hops = Net.Path.hops path in
  let node = nodes.(pos) in
  let st = Node.chan_state_at (Simnet.node t.sim) ~node ~conn ~serial in
  if not (Simnet.alive t.sim (Net.Component.Node node)) then begin
    s.s_dead <- s.s_dead + 1;
    record_loss s ~sent_at
  end
  else if st = Protocol.B || st = Protocol.N then begin
    (* Footnote 6: arrived before the activation message — discarded.
       (State U forwards: an informed node still relays in-flight data;
       the loss happens at the dead component itself.) *)
    s.s_not_activated <- s.s_not_activated + 1;
    record_loss s ~sent_at
  end
  else if pos = hops then begin
    s.s_delivered <- s.s_delivered + 1;
    Sim.Stats.Sample.add s.s_latencies (Sim.Engine.now engine -. sent_at)
  end
  else begin
    let link = path.Net.Path.links.(pos) in
    (* Queue on the link transmitter; the message occupies the line even if
       the link dies mid-flight (it is simply lost then). *)
    let now = Sim.Engine.now engine in
    let departure =
      Rtchan.Link_scheduler.enqueue t.schedulers.(link) ~now ~bits
    in
    let arrival =
      departure +. Rtchan.Rmtp.Hop_delay.default.propagation
      +. Rtchan.Rmtp.Hop_delay.default.processing
    in
    ignore
      (Sim.Engine.schedule engine ~at:arrival (fun () ->
           if Simnet.alive t.sim (Net.Component.Link link) then
             hop t s ~conn ~serial ~path ~sent_at ~bits ~pos:(pos + 1)
           else begin
             s.s_dead <- s.s_dead + 1;
             record_loss s ~sent_at
           end))
  end

let send_one t s ~conn ~bits =
  let ns = Simnet.netstate t.sim in
  s.s_sent <- s.s_sent + 1;
  let sent_at = Sim.Engine.now (Simnet.engine t.sim) in
  let path serial c =
    if serial = 0 then Some c.Dconn.primary.Rtchan.Channel.path
    else Option.map (fun b -> b.Dconn.path) (Dconn.find_backup c ~serial)
  in
  match
    Option.bind (Node.active_serial_at_source (Simnet.node t.sim) ~conn)
      (fun serial ->
        Option.bind (Netstate.find ns conn) (fun c ->
            Option.map (fun p -> (serial, p)) (path serial c)))
  with
  | None ->
    s.s_no_channel <- s.s_no_channel + 1;
    record_loss s ~sent_at
  | Some (serial, path) -> hop t s ~conn ~serial ~path ~sent_at ~bits ~pos:0

let stream t ~conn ~rate ~start ~stop () =
  if rate <= 0.0 then invalid_arg "Dataplane.stream: non-positive rate";
  if stop <= start then invalid_arg "Dataplane.stream: empty interval";
  let ns = Simnet.netstate t.sim in
  if Netstate.find ns conn = None then
    invalid_arg (Printf.sprintf "Dataplane.stream: unknown connection %d" conn);
  let s = state_for t conn in
  let engine = Simnet.engine t.sim in
  let period = 1.0 /. rate in
  let bits = 8 * 1000 in
  let rec tick at =
    if at < stop then
      ignore
        (Sim.Engine.schedule engine ~at (fun () ->
             send_one t s ~conn ~bits;
             tick (at +. period)))
  in
  tick start

let stats_of s =
  {
    conn = s.s_conn;
    sent = s.s_sent;
    delivered = s.s_delivered;
    lost_no_channel = s.s_no_channel;
    lost_dead_component = s.s_dead;
    lost_not_activated = s.s_not_activated;
    first_loss = s.s_first_loss;
    last_loss = s.s_last_loss;
    latencies = s.s_latencies;
  }

let stats t ~conn =
  match Hashtbl.find_opt t.streams conn with
  | Some s -> stats_of s
  | None -> raise Not_found

let loss_count st =
  st.lost_no_channel + st.lost_dead_component + st.lost_not_activated
