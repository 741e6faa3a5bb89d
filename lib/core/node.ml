(* A handler is a shared, immutable channel template plus a small
   per-run overlay of what a run changes: channel states, rejoin timers,
   end-node views and spare-pool draws. *)

(* Int keys hash as [Hashtbl.hash] does, so these tables keep the
   generic tables' buckets and fold order. *)
module Tbl = Hashtbl.Make (Int)

(* The spare-pool rule of both engines: a pool admits a draw up to a
   float slack, and a draw subtracts. *)
let slack = 1e-9
let fits_one pool bw = pool +. slack >= bw
let draw_one pool bw = pool -. bw

let rec fits_from pools links bw i =
  i = Array.length links
  || (fits_one pools.(links.(i)) bw && fits_from pools links bw (i + 1))

let fits pools links bw = fits_from pools links bw 0

let draw pools links bw =
  for i = 0 to Array.length links - 1 do
    pools.(links.(i)) <- draw_one pools.(links.(i)) bw
  done

type record = {
  conn : int;
  failure_time : float;
  mutable excluded : bool;
  mutable detected_at : float option;
  mutable src_informed : float option;
  mutable dst_informed : float option;
  mutable activated_at : float option;
  mutable activations : (int * float) list;
  mutable resumed_at : float option;
  mutable recovered_serial : int option;
}

(* One channel's entry at one node of its path.  [id] is dense over the
   template and keys the overlay's state bytes. *)
type entry = {
  id : int;
  cid : int;
  conn : int;
  serial : int;
  nu : float;
  bw : float;
  path : Net.Path.t;
  pnodes : int array;
  pos : int;
}

(* An end node's view of one D-connection as established. *)
type view_tpl = {
  vid : int;
  vconn : int;
  is_src : bool;
  serials : int array;
      (* the primary's 0, then every backup: a primary repaired by rejoin
         becomes a backup of its connection *)
  standby : bool array; (* serials.(i) is usable at creation *)
}

type template = {
  init_state : Bytes.t; (* entry id -> initial state code *)
  chans : entry Tbl.t array; (* node -> cid -> entry *)
  order : entry array array;
      (* node -> its entries in the order [detect] visits them, the fold
         order over [chans]; recovery times depend on it *)
  views : view_tpl Tbl.t array; (* node -> conn -> view *)
  pool : float array; (* per-link spare pools when built *)
}

(* Overlay of one view, made on first use. *)
type 'h view = {
  tv : view_tpl;
  healthy : bool array; (* parallel to [tv.serials]: usable as standby *)
  mutable attempting : int option;
  mutable pending : 'h option; (* delayed activation *)
}

type 'h ctx = {
  now : unit -> float;
  rcc_send : from_node:int -> to_node:int -> Rcc.Control.t -> unit;
  be_send : from_node:int -> to_node:int -> Protocol.be_message -> bool;
  set_timer : float -> (unit -> unit) -> 'h;
  cancel_timer : 'h -> unit;
  node_alive : int -> bool;
  telemetry : bool;
  emit : Sim.Event.t -> unit;
}

type 'h t = {
  ctx : 'h ctx;
  cfg : Protocol.config;
  ns : Netstate.t;
  topo : Net.Topology.t;
  tpl : template;
  state : Bytes.t; (* entry id -> current state code *)
  rejoin : 'h Tbl.t; (* entry id -> running timer *)
  views : 'h view Tbl.t; (* view id -> overlay *)
  mutable pool : float array; (* [tpl.pool] until the first draw *)
  mutable pool_owned : bool;
  activated : entry list Tbl.t; (* link -> entries activated on it *)
  recs : record Tbl.t;
}

type input =
  | Detect of Net.Component.t
  | Control of { from_ : int; msg : Rcc.Control.t }
  | Best_effort of Protocol.be_message

let now t = t.ctx.now ()

(* ---------- channel state overlay ---------- *)

let code_of = function
  | Protocol.N -> '\000'
  | Protocol.P -> '\001'
  | Protocol.B -> '\002'
  | Protocol.U -> '\003'

let state_of_code = function
  | '\000' -> Protocol.N
  | '\001' -> Protocol.P
  | '\002' -> Protocol.B
  | _ -> Protocol.U

let state t e = state_of_code (Bytes.unsafe_get t.state e.id)

(* Every channel-state write goes through here so the typed stream sees
   each N/P/B/U transition exactly once, with its cause. *)
let set_chan_state t node e to_ ~cause =
  let from_ = state t e in
  Bytes.unsafe_set t.state e.id (code_of to_);
  if t.ctx.telemetry && from_ <> to_ then
    t.ctx.emit
      (Sim.Event.Chan_transition { node; channel = e.cid; from_; to_; cause })

let emit_timer t node e op =
  if t.ctx.telemetry then
    t.ctx.emit (Sim.Event.Rejoin_timer { node; channel = e.cid; op })

let find_entry t node cid = Tbl.find_opt t.tpl.chans.(node) cid

(* The node's view of a connection, overlaid on first use. *)
let view_of t node conn_id =
  match Tbl.find_opt t.tpl.views.(node) conn_id with
  | None -> None
  | Some tv -> (
    match Tbl.find_opt t.views tv.vid with
    | Some _ as v -> v
    | None ->
      let v =
        { tv; healthy = Array.copy tv.standby; attempting = None; pending = None }
      in
      Tbl.replace t.views tv.vid v;
      Some v)

let set_healthy v serial ok =
  Array.iteri (fun i s -> if s = serial then v.healthy.(i) <- ok) v.tv.serials

let set_pool t l x =
  if not t.pool_owned then begin
    t.pool <- Array.copy t.pool;
    t.pool_owned <- true
  end;
  t.pool.(l) <- x

(* ---------- the channel template ---------- *)

(* Connections are added in [Netstate.dconns] order, each primary then
   its standby backups along their paths, into per-node tables created
   with 64 buckets.  The fold order this gives is [detect]'s visiting
   order, which every recorded recovery time depends on, so neither the
   insertion order nor the initial sizes may change. *)
let template ns =
  let topo = Netstate.topology ns in
  let n = Net.Topology.num_nodes topo in
  let chans = Array.init n (fun _ -> Tbl.create 64) in
  let views = Array.init n (fun _ -> Tbl.create 8) in
  let init = Buffer.create 4096 and nviews = ref 0 in
  let add_entry conn serial nu bw path =
    let pnodes = Array.of_list (Net.Path.nodes topo path) in
    let cid = Protocol.cid ~conn ~serial in
    Array.iteri
      (fun pos node ->
        let id = Buffer.length init in
        Buffer.add_char init
          (code_of (if serial = 0 then Protocol.P else Protocol.B));
        Tbl.replace chans.(node) cid
          { id; cid; conn; serial; nu; bw; path; pnodes; pos })
      pnodes
  in
  let add_view conn node ~is_src =
    let backups = conn.Dconn.backups in
    let tv =
      {
        vid = !nviews;
        vconn = conn.Dconn.id;
        is_src;
        serials =
          Array.of_list (0 :: List.map (fun b -> b.Dconn.serial) backups);
        standby =
          Array.of_list
            (false
            :: List.map (fun b -> b.Dconn.state = Dconn.Standby) backups);
      }
    in
    incr nviews;
    Tbl.replace views.(node) conn.Dconn.id tv
  in
  List.iter
    (fun conn ->
      let bw = Dconn.bandwidth conn in
      add_entry conn.Dconn.id 0 infinity bw
        conn.Dconn.primary.Rtchan.Channel.path;
      List.iter
        (fun b ->
          if b.Dconn.state = Dconn.Standby then
            add_entry conn.Dconn.id b.Dconn.serial b.Dconn.nu bw b.Dconn.path)
        conn.Dconn.backups;
      add_view conn conn.Dconn.src ~is_src:true;
      add_view conn conn.Dconn.dst ~is_src:false)
    (Netstate.dconns ns);
  {
    init_state = Buffer.to_bytes init;
    chans;
    order =
      Array.map
        (fun tbl -> Array.of_list (Tbl.fold (fun _ e acc -> e :: acc) tbl []))
        chans;
    views;
    pool = Netstate.spare_pool ns;
  }

let create ctx cfg ns tpl =
  {
    ctx;
    cfg;
    ns;
    topo = Netstate.topology ns;
    tpl;
    state = Bytes.copy tpl.init_state;
    rejoin = Tbl.create 16;
    views = Tbl.create 16;
    pool = tpl.pool;
    pool_owned = false;
    activated = Tbl.create 64;
    recs = Tbl.create 64;
  }

(* ---------- records ---------- *)

let ensure_record t conn_id =
  match Tbl.find_opt t.recs conn_id with
  | Some r -> r
  | None ->
    let r =
      {
        conn = conn_id;
        failure_time = now t;
        excluded = false;
        detected_at = None;
        src_informed = None;
        dst_informed = None;
        activated_at = None;
        activations = [];
        resumed_at = None;
        recovered_serial = None;
      }
    in
    Tbl.replace t.recs conn_id r;
    r

let fault t comp =
  List.iter
    (fun conn ->
      let r = ensure_record t conn.Dconn.id in
      match comp with
      | Net.Component.Node v when conn.Dconn.src = v || conn.Dconn.dst = v ->
        r.excluded <- true
      | _ -> ())
    (Netstate.conns_with_primary_on t.ns comp)

let records t =
  List.sort
    (fun (a : record) b -> Int.compare a.conn b.conn)
    (Tbl.fold (fun _ r acc -> r :: acc) t.recs [])

(* ---------- the handler ---------- *)

(* Scheme 1 informs only the destination, Scheme 2 only the source. *)
let reports_to_src t = t.cfg.Protocol.scheme <> Protocol.Scheme1
let reports_to_dst t = t.cfg.Protocol.scheme <> Protocol.Scheme2

(* Positions bounding a failed component on a channel path: nodes at
   positions <= fst report toward the source, nodes at positions >= snd
   toward the destination. *)
let comp_bounds e comp =
  match comp with
  | Net.Component.Link l ->
    Option.map (fun i -> (i, i + 1)) (Array.find_index (Int.equal l) e.path.Net.Path.links)
  | Net.Component.Node v ->
    Option.map (fun j -> (j - 1, j + 1)) (Array.find_index (Int.equal v) e.pnodes)

(* Send [msg] one hop toward the source ([up]) and/or the destination
   ([down]), each only if the scheme reports that way. *)
let report t node e ~up ~down msg =
  if up && reports_to_src t && e.pos > 0 then
    t.ctx.rcc_send ~from_node:node ~to_node:e.pnodes.(e.pos - 1) msg;
  if down && reports_to_dst t && e.pos < Net.Path.hops e.path then
    t.ctx.rcc_send ~from_node:node ~to_node:e.pnodes.(e.pos + 1) msg

(* Pick the lowest-serial locally healthy standby; both end nodes apply
   the same rule so they agree on which backup to activate. *)
let next_candidate t node v =
  let best = ref None in
  Array.iteri
    (fun i serial ->
      if v.healthy.(i) then
        match find_entry t node (Protocol.cid ~conn:v.tv.vconn ~serial) with
        | Some e when state t e = Protocol.B -> (
          match !best with
          | Some (s, _) when s <= serial -> ()
          | _ -> best := Some (serial, e))
        | _ -> ())
    v.tv.serials;
  !best

let holds t l = Option.value ~default:[] (Tbl.find_opt t.activated l)
let hold_activation t l e = Tbl.replace t.activated l (e :: holds t l)

(* The source resumes sending on [serial]. *)
let resume t (r : record) serial =
  let now = now t in
  r.resumed_at <- Some now;
  r.activations <- (serial, now) :: r.activations

(* ---------- rejoin timers & soft-state teardown ---------- *)

let reconfigure_teardown t e =
  match Netstate.find t.ns e.conn with
  | None -> ()
  | Some conn ->
    if e.serial = 0 then Netstate.release_primary t.ns conn
    else begin
      match Dconn.find_backup conn ~serial:e.serial with
      | None -> ()
      | Some b ->
        if b.Dconn.state = Dconn.Standby then begin
          b.Dconn.state <- Dconn.Broken;
          Netstate.unregister_backup t.ns conn b
        end
    end

let rejoin_expired t node e =
  Tbl.remove t.rejoin e.id;
  if state t e = Protocol.U then begin
    emit_timer t node e Sim.Event.Expired;
    set_chan_state t node e Protocol.N ~cause:"expire";
    (* The source node applies the network-wide resource reconfiguration
       exactly once per channel. *)
    if e.pos = 0 && t.cfg.Protocol.reconfigure_netstate then
      reconfigure_teardown t e
  end

let start_rejoin_timer t node e =
  if not (Tbl.mem t.rejoin e.id) then begin
    Tbl.replace t.rejoin e.id
      (t.ctx.set_timer t.cfg.Protocol.rejoin_timeout (fun () ->
           rejoin_expired t node e));
    emit_timer t node e Sim.Event.Started
  end

let cancel_rejoin_timer t node e =
  match Tbl.find_opt t.rejoin e.id with
  | None -> ()
  | Some h ->
    t.ctx.cancel_timer h;
    Tbl.remove t.rejoin e.id;
    emit_timer t node e Sim.Event.Cancelled

(* The channel is healthy again here: back to B, and the rejoin goes on
   toward the source, which takes the channel back as a standby. *)
let rejoin t node e =
  cancel_rejoin_timer t node e;
  set_chan_state t node e Protocol.B ~cause:"rejoin";
  if e.pos > 0 then
    ignore
      (t.ctx.be_send ~from_node:node ~to_node:e.pnodes.(e.pos - 1)
         (Protocol.Rejoin { channel = e.cid }))
  else
    match view_of t node e.conn with
    | None -> ()
    | Some v -> set_healthy v e.serial true

let rec forward_rejoin_request t node e =
  (* Forward toward the destination; hold and retry while the next hop is
     dead, as long as the channel is still repairable (state U). *)
  if state t e = Protocol.U then begin
    let next = e.pnodes.(e.pos + 1) in
    if not
         (t.ctx.be_send ~from_node:node ~to_node:next
            (Protocol.Rejoin_request { channel = e.cid }))
    then
      ignore
        (t.ctx.set_timer t.cfg.Protocol.rejoin_retry (fun () ->
             forward_rejoin_request t node e))
  end

(* ---------- failure reports, activation and preemption ---------- *)

let rec process_failure_report t node e comp ~tag =
  match state t e with
  | Protocol.U | Protocol.N -> () (* duplicate reports are ignored *)
  | Protocol.P | Protocol.B ->
    set_chan_state t node e Protocol.U ~cause:tag;
    start_rejoin_timer t node e;
    let hops = Net.Path.hops e.path in
    (match comp_bounds e comp with
    | None -> ()
    | Some (src_side, dst_side) ->
      report t node e ~up:(e.pos <= src_side) ~down:(e.pos >= dst_side)
        (Rcc.Control.Failure_report { channel = e.cid; component = comp }));
    (* End-node duties. *)
    if e.pos = 0 then begin
      end_learns_failure t node e;
      (* Soft-state channel repair: the source probes the failed channel. *)
      if hops > 0 then forward_rejoin_request t node e
    end;
    if e.pos = hops && hops > 0 then end_learns_failure t node e

(* An end node learns that channel [e] of one of its connections failed:
   the primary's loss starts an activation if the scheme informs this
   end; a backup's loss drops it from the candidates, and retries if it
   was the one being activated. *)
and end_learns_failure t node e =
  match view_of t node e.conn with
  | None -> ()
  | Some v ->
    let activates = if v.tv.is_src then reports_to_src t else reports_to_dst t in
    if e.serial = 0 then begin
      (match Tbl.find_opt t.recs e.conn with
      | Some r when v.tv.is_src && r.src_informed = None ->
        r.src_informed <- Some (now t)
      | Some r when (not v.tv.is_src) && r.dst_informed = None ->
        r.dst_informed <- Some (now t)
      | _ -> ());
      if activates then try_activate t node v
    end
    else begin
      set_healthy v e.serial false;
      if v.attempting = Some e.serial then begin
        Option.iter t.ctx.cancel_timer v.pending;
        v.pending <- None;
        v.attempting <- None;
        if activates then try_activate t node v
      end
    end

and try_activate t node v =
  match v.attempting with
  | Some _ -> () (* an activation is already in flight *)
  | None -> (
    match next_candidate t node v with
    | None -> ()
    | Some (serial, e) -> (
      v.attempting <- Some serial;
      match t.cfg.Protocol.priority with
      | Protocol.Delayed_activation slot ->
        let degree =
          Float.round (e.nu /. Netstate.lambda t.ns) |> int_of_float |> max 0
        in
        v.pending <-
          Some
            (t.ctx.set_timer (slot *. float_of_int degree) (fun () ->
                 v.pending <- None;
                 initiate_wave t node v serial))
      | Protocol.No_priority | Protocol.Preemptive ->
        initiate_wave t node v serial))

and initiate_wave t node v serial =
  let conn = v.tv.vconn in
  match find_entry t node (Protocol.cid ~conn ~serial) with
  | None -> ()
  | Some e ->
    (* Not a standby any more, or a multiplexing failure right at the end
       node: try the next candidate. *)
    if state t e <> Protocol.B || not (transition_to_p t node e) then begin
      set_healthy v serial false;
      v.attempting <- None;
      try_activate t node v
    end
    else begin
      if t.ctx.telemetry then
        t.ctx.emit (Sim.Event.Activation { node; conn; serial; channel = e.cid });
      (match Tbl.find_opt t.recs conn with
      | Some r when r.activated_at = None -> r.activated_at <- Some (now t)
      | _ -> ());
      let hops = Net.Path.hops e.path in
      if v.tv.is_src then resume t (ensure_record t conn) serial;
      if hops > 0 then
        t.ctx.rcc_send ~from_node:node
          ~to_node:e.pnodes.(if v.tv.is_src then 1 else hops - 1)
          (Rcc.Control.Activation { conn; serial; channel = e.cid })
    end

(* Promote a backup entry to primary at this node, drawing spare
   bandwidth for the node's outgoing path link. *)
and transition_to_p t node e =
  let hops = Net.Path.hops e.path in
  let drawn =
    if e.pos >= hops then true
    else begin
      let l = e.path.Net.Path.links.(e.pos) in
      if fits_one t.pool.(l) e.bw then begin
        set_pool t l (draw_one t.pool.(l) e.bw);
        hold_activation t l e;
        true
      end
      else
        match t.cfg.Protocol.priority with
        | Protocol.Preemptive -> preempt_for t node e l
        | Protocol.No_priority | Protocol.Delayed_activation _ -> false
    end
  in
  if drawn then begin
    cancel_rejoin_timer t node e;
    set_chan_state t node e Protocol.P ~cause:"activate";
    true
  end
  else begin
    mux_failure_at t node e;
    false
  end

and preempt_for t node e l =
  (* Victims: already-activated backups with strictly lower priority
     (larger ν), most expendable first.  Each is this node's entry of its
     channel: [l] leaves this node. *)
  let victims =
    List.sort (fun a b -> Float.compare b.nu a.nu)
      (List.filter (fun h -> h.nu > e.nu) (holds t l))
  in
  (* Free victims one by one until the pool suffices. *)
  let rec go freed remaining =
    if fits_one t.pool.(l) e.bw then Some freed
    else
      match remaining with
      | [] -> None
      | v :: rest ->
        set_pool t l (t.pool.(l) +. v.bw);
        Tbl.replace t.activated l (List.filter (fun h -> h != v) (holds t l));
        preempt_victim t node v l;
        go (v :: freed) rest
  in
  match go [] victims with
  | Some _ ->
    set_pool t l (draw_one t.pool.(l) e.bw);
    hold_activation t l e;
    true
  | None -> false

(* A preempted channel is handled as if disabled by a component failure
   (Section 4.3). *)
and preempt_victim t node v l =
  set_chan_state t node v Protocol.B ~cause:"preempt"
  (* so the report processing runs *);
  process_failure_report t node v (Net.Component.Link l) ~tag:"preempted"

and mux_failure_at t node e =
  let hops = Net.Path.hops e.path in
  let l = if e.pos < hops then e.path.Net.Path.links.(e.pos) else -1 in
  (match state t e with
  | Protocol.P | Protocol.B ->
    set_chan_state t node e Protocol.U ~cause:"mux-fail";
    start_rejoin_timer t node e
  | Protocol.U | Protocol.N -> ());
  if l >= 0 then
    report t node e ~up:true ~down:true
      (Rcc.Control.Mux_failure_report { channel = e.cid; link = l })

(* ---------- dispatch ---------- *)

let handle_control t node ~from_ c =
  match c with
  | Rcc.Control.Heartbeat _ -> ()
  | Rcc.Control.Failure_report { channel; component } ->
    Option.iter
      (fun e -> process_failure_report t node e component ~tag:"report")
      (find_entry t node channel)
  | Rcc.Control.Mux_failure_report { channel; link } ->
    Option.iter
      (fun e ->
        process_failure_report t node e (Net.Component.Link link)
          ~tag:"mux-report")
      (find_entry t node channel)
  | Rcc.Control.Activation { conn; serial; channel } -> (
    match find_entry t node channel with
    | None -> ()
    | Some e -> (
      match state t e with
      | Protocol.P | Protocol.U | Protocol.N ->
        (* Already activated from the other end, or a fresher failure is
           being reported: discard (Section 4.2). *)
        ()
      | Protocol.B ->
        (* Pass it on away from the neighbour it came from. *)
        let next =
          if e.pos > 0 && e.pnodes.(e.pos - 1) = from_ then e.pos + 1
          else e.pos - 1
        in
        if transition_to_p t node e then begin
          (* Scheme 1: the source resumes when the activation reaches it. *)
          (if e.pos = 0 then
             match view_of t node conn with
             | Some v when v.tv.is_src ->
               let r = ensure_record t conn in
               if r.resumed_at = None then resume t r serial
             | _ -> ());
          if next >= 0 && next <= Net.Path.hops e.path then
            t.ctx.rcc_send ~from_node:node ~to_node:e.pnodes.(next) c
        end))

let be_channel = function
  | Protocol.Rejoin_request { channel }
  | Protocol.Rejoin { channel }
  | Protocol.Closure { channel } ->
    channel

let handle_be t node msg =
  match find_entry t node (be_channel msg) with
  | None -> ()
  | Some e -> (
    let hops = Net.Path.hops e.path in
    let close_downstream () =
      if e.pos < hops then
        ignore
          (t.ctx.be_send ~from_node:node ~to_node:e.pnodes.(e.pos + 1)
             (Protocol.Closure { channel = e.cid }))
    in
    match msg with
    | Protocol.Rejoin_request _ ->
      (* At the destination the channel is repairable: answer with a
         rejoin. *)
      if state t e = Protocol.U then
        if e.pos = hops then rejoin t node e
        else forward_rejoin_request t node e
    | Protocol.Rejoin _ -> (
      match state t e with
      | Protocol.U -> rejoin t node e
      | Protocol.N ->
        (* Rejoin arrived after the timer expired: undo with a closure
           toward the destination (Fig. 6). *)
        close_downstream ()
      | Protocol.P | Protocol.B -> ())
    | Protocol.Closure _ ->
      cancel_rejoin_timer t node e;
      set_chan_state t node e Protocol.N ~cause:"closure";
      close_downstream ())

(* ---------- local failure detection ---------- *)

let detect t node comp =
  if t.ctx.node_alive node then
    Array.iter
      (fun e ->
        match state t e with
        | Protocol.P | Protocol.B ->
          if Net.Path.uses_component t.topo e.path comp then begin
            (if e.serial = 0 then
               match Tbl.find_opt t.recs e.conn with
               | Some r when r.detected_at = None -> r.detected_at <- Some (now t)
               | _ -> ());
            process_failure_report t node e comp ~tag:"detect"
          end
        | Protocol.U | Protocol.N -> ())
      t.tpl.order.(node)

let handle t node = function
  | Detect comp -> detect t node comp
  | Control { from_; msg } -> handle_control t node ~from_ msg
  | Best_effort msg -> handle_be t node msg

(* ---------- observations ---------- *)

let chan_state_at t ~node ~conn ~serial =
  match find_entry t node (Protocol.cid ~conn ~serial) with
  | None -> Protocol.N
  | Some e -> state t e

let state_of t ~conn ~serial =
  let path c =
    if serial = 0 then Some c.Dconn.primary.Rtchan.Channel.path
    else Option.map (fun b -> b.Dconn.path) (Dconn.find_backup c ~serial)
  in
  match Option.bind (Netstate.find t.ns conn) path with
  | None -> []
  | Some p ->
    List.map
      (fun node -> chan_state_at t ~node ~conn ~serial)
      (Net.Path.nodes t.topo p)

let fully_activated t ~conn ~serial =
  match state_of t ~conn ~serial with
  | [] -> false
  | states -> List.for_all (fun s -> s = Protocol.P) states

let pool_remaining t l = t.pool.(l)

let active_serial_at_source t ~conn =
  match Netstate.find t.ns conn with
  | None -> None
  | Some c ->
    let serials = 0 :: List.map (fun b -> b.Dconn.serial) c.Dconn.backups in
    List.find_opt
      (fun serial -> chan_state_at t ~node:c.Dconn.src ~conn ~serial = Protocol.P)
      (List.sort Int.compare serials)
