(* A simulation is a shared, immutable channel template plus a small
   per-simulation overlay.  The template holds every channel's entry at
   every node of its path and every end node's view of its connection,
   as they stand in one netstate generation; it is built once and cached
   under (physical netstate, [Netstate.generation]).  The overlay holds
   what a run changes: channel states, rejoin timers, end-node views and
   spare-pool draws.  Nothing in the template is ever written after it is
   built, so simulations on several domains (and several live
   simulations on one domain) share it safely. *)

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
  chans : (int, entry) Hashtbl.t array; (* node -> cid -> entry *)
  order : entry array array;
      (* node -> its entries in the order [detect] visits them, the
         [Hashtbl.fold] order over [chans]; recovery times depend on it *)
  views : (int, view_tpl) Hashtbl.t array; (* node -> conn -> view *)
  pool : float array; (* per-link spare pools when built *)
}

(* Overlay of one view, made on first use. *)
type view = {
  tv : view_tpl;
  healthy : bool array; (* parallel to [tv.serials]: usable as standby *)
  mutable attempting : int option;
  mutable pending : Sim.Engine.handle option; (* delayed activation *)
}

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

type activation_hold = { a_conn : int; a_serial : int; a_nu : float; a_bw : float }

type t = {
  engine : Sim.Engine.t;
  topo : Net.Topology.t;
  ns : Netstate.t;
  cfg : Protocol.config;
  trace : Sim.Trace.t;
  tpl : template;
  state : Bytes.t; (* entry id -> current state code *)
  rejoin : (int, Sim.Engine.handle) Hashtbl.t; (* entry id -> running timer *)
  views : (int, view) Hashtbl.t; (* view id -> overlay *)
  mutable rcc : Rcc.Transport.t array;
  link_failed : bool array;
  node_alive : bool array;
  mutable pool : float array; (* [tpl.pool] until the first draw *)
  mutable pool_owned : bool;
  activated : (int, activation_hold list) Hashtbl.t; (* link -> holds *)
  recs : (int, record) Hashtbl.t;
  mutable impair : Failures.Impair.t option;
  mutable monitors : Detector.t array; (* heartbeat mode: one per link *)
  mutable hb_beats : int array; (* per-link beat counters *)
  mutable sender_reported : bool array; (* drop-based report sent for link *)
  mutable hb_confirms : int;
  mutable hb_recoveries : int;
  telemetry : bool;
  monitor : Sim.Monitor.t option;
  metrics : Sim.Metrics.t;
  counters : Sim.Metrics.counter option array; (* slot -> handle *)
  mutable phases_observed : bool;
}

let engine t = t.engine
let netstate t = t.ns
let config t = t.cfg
let trace t = t.trace
let metrics t = t.metrics
let now t = Sim.Engine.now t.engine

(* String trace entries are formatted only when read: [pp] runs later,
   so it must capture values (every call site's are immutable), not
   state a later step may change. *)
let tracef t tag pp = Sim.Trace.record_pp t.trace ~time:(now t) ~tag pp

let pf = Format.fprintf

(* ---------- per-event counters ---------- *)

(* Every event kind has a fixed, finite label set, so its counter gets a
   slot: the (name, labels) key below is registered on the slot's first
   event and its handle kept, so the registry sees the same keys in the
   same order as one lookup per event would give. *)
let chan_states = [| Sim.Event.N; P; B; U |]
let rcc_ops = [| Sim.Event.Send; Retransmit; Deliver; Ack; Drop |]
let detector_signals = [| Sim.Event.Suspect; Confirm; Clear |]
let timer_ops = [| Sim.Event.Started; Cancelled; Expired |]
let mux_ops = [| Sim.Event.Register; Unregister |]
let lifecycle_ops = [| Sim.Event.Arrive; Admit; Block; Depart; Readmit |]

(* A top-level loop, not a local closure: [emit] runs it for every event,
   and a closure over [arr] and [x] would be allocated on each call. *)
let rec index_from arr x i = if arr.(i) == x then i else index_from arr x (i + 1)
let index_of arr x = index_from arr x 0

let transition_slot = 0
let rcc_slot = transition_slot + 16
let detector_slot = rcc_slot + Array.length rcc_ops
let activation_slot = detector_slot + Array.length detector_signals
let rejoin_slot = activation_slot + 1
let mux_slot = rejoin_slot + Array.length timer_ops
let fault_slot = mux_slot + Array.length mux_ops
let lifecycle_slot = fault_slot + 2

let slot_keys =
  let keys name label to_string values =
    Array.to_list
      (Array.map (fun v -> (name, [ (label, to_string v) ])) values)
  in
  Array.of_list
    (List.concat
       [
         List.concat_map
           (fun from_ ->
             List.map
               (fun to_ ->
                 ( "bcp.chan_transitions",
                   [
                     ("from", Sim.Event.chan_state_to_string from_);
                     ("to", Sim.Event.chan_state_to_string to_);
                   ] ))
               (Array.to_list chan_states))
           (Array.to_list chan_states);
         keys "rcc.messages" "op" Sim.Event.rcc_op_to_string rcc_ops;
         keys "detector.signals" "signal" Sim.Event.detector_signal_to_string
           detector_signals;
         [ ("bcp.activations", []) ];
         keys "bcp.rejoin_timers" "op" Sim.Event.timer_op_to_string timer_ops;
         keys "mux.updates" "op" Sim.Event.mux_op_to_string mux_ops;
         keys "faults" "dir" Fun.id [| "fail"; "repair" |];
         keys "workload.lifecycle" "op" Sim.Event.lifecycle_op_to_string
           lifecycle_ops;
       ])

let incr_slot t slot =
  let c =
    match t.counters.(slot) with
    | Some c -> c
    | None ->
      let name, labels = slot_keys.(slot) in
      let c = Sim.Metrics.counter t.metrics ~labels name in
      t.counters.(slot) <- Some c;
      c
  in
  Sim.Metrics.incr c

(* Record one typed event and bump its registry counter.  The whole body
   is behind [t.telemetry], so untraced runs pay a single branch. *)
let emit t ev =
  if t.telemetry then begin
    Sim.Trace.record_event t.trace ~time:(now t) ev;
    (match t.monitor with
    | Some m -> Sim.Monitor.feed m ~time:(now t) ev
    | None -> ());
    match ev with
    | Sim.Event.Chan_transition { from_; to_; _ } ->
      incr_slot t
        (transition_slot + (4 * index_of chan_states from_)
        + index_of chan_states to_)
    | Sim.Event.Rcc { op; _ } -> incr_slot t (rcc_slot + index_of rcc_ops op)
    | Sim.Event.Detector { signal; _ } ->
      incr_slot t (detector_slot + index_of detector_signals signal)
    | Sim.Event.Activation _ -> incr_slot t activation_slot
    | Sim.Event.Rejoin_timer { op; _ } ->
      incr_slot t (rejoin_slot + index_of timer_ops op)
    | Sim.Event.Mux { op; _ } -> incr_slot t (mux_slot + index_of mux_ops op)
    | Sim.Event.Fault { up; _ } -> incr_slot t (fault_slot + Bool.to_int up)
    | Sim.Event.Lifecycle { op; _ } ->
      incr_slot t (lifecycle_slot + index_of lifecycle_ops op)
  end

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

let chan_state_ev = function
  | Protocol.N -> Sim.Event.N
  | Protocol.P -> Sim.Event.P
  | Protocol.B -> Sim.Event.B
  | Protocol.U -> Sim.Event.U

(* Every channel-state write goes through here so the typed stream sees
   each N/P/B/U transition exactly once, with its cause. *)
let set_chan_state t node e to_ ~cause =
  let from_ = state t e in
  Bytes.unsafe_set t.state e.id (code_of to_);
  if t.telemetry && from_ <> to_ then
    emit t
      (Sim.Event.Chan_transition
         {
           node;
           channel = e.cid;
           from_ = chan_state_ev from_;
           to_ = chan_state_ev to_;
           cause;
         })

let find_entry t node cid = Hashtbl.find_opt t.tpl.chans.(node) cid

(* The node's view of a connection, overlaid on first use. *)
let view_of t node conn_id =
  match Hashtbl.find_opt t.tpl.views.(node) conn_id with
  | None -> None
  | Some tv -> (
    match Hashtbl.find_opt t.views tv.vid with
    | Some _ as v -> v
    | None ->
      let v =
        {
          tv;
          healthy = Array.copy tv.standby;
          attempting = None;
          pending = None;
        }
      in
      Hashtbl.replace t.views tv.vid v;
      Some v)

let set_healthy v serial ok =
  Array.iteri (fun i s -> if s = serial then v.healthy.(i) <- ok) v.tv.serials

(* ---------- spare-pool overlay ---------- *)

let pool_remaining t l = t.pool.(l)

let set_pool t l x =
  if not t.pool_owned then begin
    t.pool <- Array.copy t.pool;
    t.pool_owned <- true
  end;
  t.pool.(l) <- x

let link_alive t l =
  let lk = Net.Topology.link t.topo l in
  (not t.link_failed.(l))
  && t.node_alive.(lk.Net.Topology.src)
  && t.node_alive.(lk.Net.Topology.dst)

let refresh_link_transport t l =
  let up = link_alive t l in
  Rcc.Transport.set_alive t.rcc.(l) up;
  (* A repaired link may fail again later; re-arm the sender-side
     drop-based detector. *)
  if up && Array.length t.sender_reported > 0 then t.sender_reported.(l) <- false

(* ---------- the channel template ---------- *)

(* Connections are added in [Netstate.dconns] order, each primary then
   its standby backups along their paths, into per-node tables created
   with 64 buckets.  The fold order this gives is [detect]'s visiting
   order, which every recorded recovery time depends on, so neither the
   insertion order nor the initial sizes may change. *)
let build_template ns =
  let topo = Netstate.topology ns in
  let n = Net.Topology.num_nodes topo in
  let chans = Array.init n (fun _ -> Hashtbl.create 64) in
  let views = Array.init n (fun _ -> Hashtbl.create 8) in
  let init = Buffer.create 4096 and nviews = ref 0 in
  let add_entry conn serial nu bw path =
    let pnodes = Array.of_list (Net.Path.nodes topo path) in
    let cid = Protocol.cid ~conn ~serial in
    Array.iteri
      (fun pos node ->
        let id = Buffer.length init in
        Buffer.add_char init
          (code_of (if serial = 0 then Protocol.P else Protocol.B));
        Hashtbl.replace chans.(node) cid
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
    Hashtbl.replace views.(node) conn.Dconn.id tv
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
        (fun tbl ->
          Array.of_list (Hashtbl.fold (fun _ e acc -> e :: acc) tbl []))
        chans;
    views;
    pool = Netstate.spare_pool ns;
  }

let templates : (Netstate.t, int * template) Sim.Memo.t = Sim.Memo.create ()

let template_of ns =
  let generation = Netstate.generation ns in
  match Sim.Memo.find templates ns with
  | Some (g, tpl) when g = generation -> tpl
  | _ ->
    Sim.Prof.count "simnet.template_builds";
    let tpl = build_template ns in
    Sim.Memo.set templates ns (generation, tpl);
    tpl

let create ?(config = Protocol.default_config) ?(telemetry = false) ?monitor ns
    =
  Sim.Prof.span "simnet.create" @@ fun () ->
  (* An attached monitor needs the event stream: force telemetry on. *)
  let telemetry = telemetry || monitor <> None in
  let topo = Netstate.topology ns in
  let tpl = template_of ns in
  let t =
    {
      engine = Sim.Engine.create ();
      topo;
      ns;
      cfg = config;
      trace = Sim.Trace.create ();
      tpl;
      state = Bytes.copy tpl.init_state;
      rejoin = Hashtbl.create 16;
      views = Hashtbl.create 16;
      rcc = [||];
      link_failed = Array.make (Net.Topology.num_links topo) false;
      node_alive = Array.make (Net.Topology.num_nodes topo) true;
      pool = tpl.pool;
      pool_owned = false;
      activated = Hashtbl.create 64;
      recs = Hashtbl.create 64;
      impair = None;
      monitors = [||];
      hb_beats = [||];
      sender_reported = [||];
      hb_confirms = 0;
      hb_recoveries = 0;
      telemetry;
      monitor;
      metrics = Sim.Metrics.create ();
      counters = Array.make (Array.length slot_keys) None;
      phases_observed = false;
    }
  in
  if telemetry then begin
    Sim.Trace.set_events t.trace true;
    (* With write-back enabled, soft-state teardown unregisters backups
       through the shared mux engine; route those updates into this run's
       event stream.  (Skipped otherwise: read-only parallel sweeps share
       one netstate across domains and must not mutate it.) *)
    if config.Protocol.reconfigure_netstate then
      Mux.set_event_sink (Netstate.mux ns) (Some (emit t))
  end;
  t

(* RCC deliver closures need [t]; fill the transports afterwards. *)
let rec wire_transports t =
  if Array.length t.rcc = 0 then begin
    t.rcc <-
      Array.init (Net.Topology.num_links t.topo) (fun l ->
          let lk = Net.Topology.link t.topo l in
          Rcc.Transport.create t.engine ~params:t.cfg.Protocol.rcc ~link:l
            ~deliver:(fun c ->
              if t.node_alive.(lk.Net.Topology.dst) then
                handle_control t lk.Net.Topology.dst ~via:l c));
    let sink ~link ~op ~seq ~bytes = rcc_step t ~link ~op ~seq ~bytes in
    Array.iter (fun tr -> Rcc.Transport.set_sink tr sink) t.rcc;
    apply_impairment t;
    match t.cfg.Protocol.detector with
    | Protocol.Heartbeat hb -> start_heartbeats t hb
    | Protocol.Oracle -> ()
  end

and apply_impairment t =
  match t.impair with
  | None -> ()
  | Some imp ->
    Array.iteri
      (fun l tr ->
        Rcc.Transport.set_impairment tr
          (Some
             (fun ~dir ~bytes ~now ->
               Failures.Impair.decide imp ~link:l ~dir ~bytes ~now)))
      t.rcc

(* ---------- heartbeat failure detection ---------- *)

(* One keepalive stream per simplex link, carried over the link's own RCC
   so that detection is subject to the same loss/duplication/delay as the
   rest of the control plane.  The receiver runs a {!Detector} per
   incoming link; the sender treats exhausted retransmissions (no ack
   after [max_retransmits]) as its own confirmation.  Ticks are staggered
   by link id so the whole network does not beat in lock-step. *)

and start_heartbeats t hb =
  let m = Net.Topology.num_links t.topo in
  let now = Sim.Engine.now t.engine in
  t.monitors <- Array.init m (fun _ -> Detector.create hb ~now);
  t.hb_beats <- Array.make m 0;
  t.sender_reported <- Array.make m false;
  let period = hb.Detector.period in
  (* Each link's two tick closures are built once and re-armed by
     themselves.  The send tick arms its successor before sending, so the
     beat is its last action and the transport may pump it inline (see
     {!Rcc.Transport.send}); the successor lies a period ahead, after the
     pump, so the two orders dispatch the same. *)
  for l = 0 to m - 1 do
    let offset = period *. (float_of_int (l + 1) /. float_of_int (m + 1)) in
    let rec send_tick () =
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
           ~delay:period send_tick);
      hb_send t l
    in
    let rec check_tick () =
      hb_check t l;
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
           ~delay:period check_tick)
    in
    ignore
      (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
         ~delay:offset send_tick);
    ignore
      (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
         ~delay:(offset +. (0.5 *. period))
         check_tick)
  done

and hb_send t l =
  let src = (Net.Topology.link t.topo l).Net.Topology.src in
  (* A dead node's daemon is silent, but keep ticking: the node may be
     repaired later. *)
  if t.node_alive.(src) then begin
    t.hb_beats.(l) <- t.hb_beats.(l) + 1;
    Rcc.Transport.send t.rcc.(l)
      (Rcc.Control.Heartbeat { node = src; beat = t.hb_beats.(l) })
  end

and hb_check t l =
  let lk = Net.Topology.link t.topo l in
  let dst = lk.Net.Topology.dst in
  if t.node_alive.(dst) then
    match Detector.check t.monitors.(l) ~now:(now t) with
    | `Confirmed ->
      t.hb_confirms <- t.hb_confirms + 1;
      tracef t "hb-confirm" (fun f ->
          pf f "node %d: link %d declared failed (heartbeats)" dst l);
      emit t
        (Sim.Event.Detector { node = dst; link = l; signal = Sim.Event.Confirm });
      detect t dst (Net.Component.Link l)
    | `Suspected ->
      tracef t "hb-suspect" (fun f -> pf f "node %d: link %d suspected" dst l);
      emit t
        (Sim.Event.Detector { node = dst; link = l; signal = Sim.Event.Suspect })
    | `Fine -> ()

(* One RCC step of link [link], reported by its transport as plain ints:
   the typed stream gets it as an [Rcc] event without building one, and
   in heartbeat mode a drop is the sender-side failure signal. *)
and rcc_step t ~link ~op ~seq ~bytes =
  if t.telemetry then begin
    Sim.Trace.record_rcc t.trace ~time:(now t) ~link ~op ~seq ~bytes;
    (match t.monitor with Some m -> Sim.Monitor.feed_rcc m op | None -> ());
    incr_slot t (rcc_slot + index_of rcc_ops op)
  end;
  match op with
  | Sim.Event.Drop when Array.length t.monitors > 0 -> sender_drop t link
  | _ -> ()

and sender_drop t l =
  if not t.sender_reported.(l) then begin
    let lk = Net.Topology.link t.topo l in
    let src = lk.Net.Topology.src in
    if t.node_alive.(src) then begin
      t.sender_reported.(l) <- true;
      t.hb_confirms <- t.hb_confirms + 1;
      tracef t "hb-confirm" (fun f ->
          pf f "node %d: link %d declared failed (no acks)" src l);
      emit t
        (Sim.Event.Detector { node = src; link = l; signal = Sim.Event.Confirm });
      detect t src (Net.Component.Link l)
    end
  end

and hb_beat t ~via =
  if Array.length t.monitors > 0 then
    match Detector.beat t.monitors.(via) ~now:(now t) with
    | `Recovered ->
      t.hb_recoveries <- t.hb_recoveries + 1;
      tracef t "hb-recover" (fun f ->
          pf f "link %d heartbeats resumed (repair or false positive)" via);
      let dst = (Net.Topology.link t.topo via).Net.Topology.dst in
      emit t
        (Sim.Event.Detector { node = dst; link = via; signal = Sim.Event.Clear })
    | `Fine -> ()

(* ---------- message plumbing ---------- *)

and rcc_send t ~from_node ~to_node c =
  wire_transports t;
  match Net.Topology.find_link t.topo ~src:from_node ~dst:to_node with
  | None ->
    tracef t "drop" (fun f ->
        pf f "no link %d->%d for %a" from_node to_node Rcc.Control.pp c)
  | Some l -> Rcc.Transport.send t.rcc.(l) c

and be_send t ~from_node ~to_node msg =
  match Net.Topology.find_link t.topo ~src:from_node ~dst:to_node with
  | None -> false
  | Some l ->
    if not (link_alive t l) then false
    else begin
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Message t.engine
           ~delay:t.cfg.Protocol.best_effort_delay
           (fun () ->
             if link_alive t l && t.node_alive.(to_node) then
               handle_be t to_node msg));
      true
    end

(* ---------- record helpers ---------- *)

and record_for t conn_id =
  match Hashtbl.find_opt t.recs conn_id with
  | Some r -> Some r
  | None -> None

and ensure_record t conn_id =
  match Hashtbl.find_opt t.recs conn_id with
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
    Hashtbl.replace t.recs conn_id r;
    r

(* ---------- rejoin timers & soft-state teardown ---------- *)

and start_rejoin_timer t node e =
  if not (Hashtbl.mem t.rejoin e.id) then begin
    Hashtbl.replace t.rejoin e.id
      (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
         ~delay:t.cfg.Protocol.rejoin_timeout
         (fun () -> rejoin_expired t node e));
    emit t
      (Sim.Event.Rejoin_timer { node; channel = e.cid; op = Sim.Event.Started })
  end

and cancel_rejoin_timer t node e =
  match Hashtbl.find_opt t.rejoin e.id with
  | None -> ()
  | Some h ->
    Sim.Engine.cancel t.engine h;
    Hashtbl.remove t.rejoin e.id;
    emit t
      (Sim.Event.Rejoin_timer { node; channel = e.cid; op = Sim.Event.Cancelled })

and rejoin_expired t node e =
  Hashtbl.remove t.rejoin e.id;
  if state t e = Protocol.U then begin
    emit t
      (Sim.Event.Rejoin_timer { node; channel = e.cid; op = Sim.Event.Expired });
    set_chan_state t node e Protocol.N ~cause:"expire";
    tracef t "expire" (fun f ->
        pf f "node %d: ch %d torn down (rejoin timer)" node e.cid);
    (* The source node applies the network-wide resource reconfiguration
       exactly once per channel. *)
    if e.pos = 0 && t.cfg.Protocol.reconfigure_netstate then
      reconfigure_teardown t e
  end

and reconfigure_teardown t e =
  match Netstate.find t.ns e.conn with
  | None -> ()
  | Some conn ->
    if e.serial = 0 then begin
      Rtchan.Rnmp.teardown (Netstate.rnmp t.ns) conn.Dconn.primary.Rtchan.Channel.id;
      Netstate.bump t.ns;
      conn.Dconn.primary_alive <- false
    end
    else begin
      match Dconn.find_backup conn ~serial:e.serial with
      | None -> ()
      | Some b ->
        if b.Dconn.state = Dconn.Standby then begin
          b.Dconn.state <- Dconn.Broken;
          Netstate.unregister_backup t.ns conn b
        end
    end

(* ---------- failure-report propagation ---------- *)

(* Positions bounding a failed component on a channel path: nodes at
   positions <= fst report toward the source, nodes at positions >= snd
   toward the destination. *)
and comp_bounds e comp =
  match comp with
  | Net.Component.Link l ->
    let rec find i =
      if i >= Array.length e.path.Net.Path.links then None
      else if e.path.Net.Path.links.(i) = l then Some (i, i + 1)
      else find (i + 1)
    in
    find 0
  | Net.Component.Node v ->
    let rec find j =
      if j >= Array.length e.pnodes then None
      else if e.pnodes.(j) = v then Some (j - 1, j + 1)
      else find (j + 1)
    in
    find 0

and scheme_reports_to_src t =
  match t.cfg.Protocol.scheme with
  | Protocol.Scheme2 | Protocol.Scheme3 -> true
  | Protocol.Scheme1 -> false

and scheme_reports_to_dst t =
  match t.cfg.Protocol.scheme with
  | Protocol.Scheme1 | Protocol.Scheme3 -> true
  | Protocol.Scheme2 -> false

and process_failure_report t node e comp ~tag =
  match state t e with
  | Protocol.U | Protocol.N -> () (* duplicate reports are ignored *)
  | Protocol.P | Protocol.B ->
    set_chan_state t node e Protocol.U ~cause:tag;
    tracef t "state" (fun f ->
        pf f "node %d: ch %d -> U (%s %a)" node e.cid tag Net.Component.pp
          comp);
    start_rejoin_timer t node e;
    let hops = Net.Path.hops e.path in
    (match comp_bounds e comp with
    | None -> ()
    | Some (src_side, dst_side) ->
      if scheme_reports_to_src t && e.pos <= src_side && e.pos > 0 then
        rcc_send t ~from_node:node ~to_node:e.pnodes.(e.pos - 1)
          (Rcc.Control.Failure_report { channel = e.cid; component = comp });
      if scheme_reports_to_dst t && e.pos >= dst_side && e.pos < hops then
        rcc_send t ~from_node:node ~to_node:e.pnodes.(e.pos + 1)
          (Rcc.Control.Failure_report { channel = e.cid; component = comp }));
    (* End-node duties. *)
    if e.pos = 0 then begin
      source_learns_failure t node e;
      (* Soft-state channel repair: the source probes the failed channel. *)
      send_rejoin_request t node e
    end;
    if e.pos = hops && hops > 0 then dest_learns_failure t node e

and send_rejoin_request t node e =
  if Net.Path.hops e.path > 0 then begin
    tracef t "rejoin-req" (fun f -> pf f "node %d: probing ch %d" node e.cid);
    forward_rejoin_request t node e
  end

and forward_rejoin_request t node e =
  (* Forward toward the destination; hold and retry while the next hop is
     dead, as long as the channel is still repairable (state U). *)
  if state t e = Protocol.U then begin
    let next = e.pnodes.(e.pos + 1) in
    if not (be_send t ~from_node:node ~to_node:next
              (Protocol.Rejoin_request { channel = e.cid }))
    then
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
           ~delay:t.cfg.Protocol.rejoin_retry
           (fun () -> forward_rejoin_request t node e))
  end

(* ---------- end-node failure handling & activation ---------- *)

and source_learns_failure t node e =
  match view_of t node e.conn with
  | None -> ()
  | Some v ->
    if e.serial = 0 then begin
      (match record_for t e.conn with
      | Some r when r.src_informed = None -> r.src_informed <- Some (now t)
      | _ -> ());
      if scheme_reports_to_src t then try_activate t node v
    end
    else begin
      set_healthy v e.serial false;
      if v.attempting = Some e.serial then begin
        cancel_pending t v;
        v.attempting <- None;
        if scheme_reports_to_src t then try_activate t node v
      end
    end

and dest_learns_failure t node e =
  match view_of t node e.conn with
  | None -> ()
  | Some v ->
    if e.serial = 0 then begin
      (match record_for t e.conn with
      | Some r when r.dst_informed = None -> r.dst_informed <- Some (now t)
      | _ -> ());
      if scheme_reports_to_dst t then try_activate t node v
    end
    else begin
      set_healthy v e.serial false;
      if v.attempting = Some e.serial then begin
        cancel_pending t v;
        v.attempting <- None;
        if scheme_reports_to_dst t then try_activate t node v
      end
    end

and cancel_pending t v =
  match v.pending with
  | None -> ()
  | Some h ->
    Sim.Engine.cancel t.engine h;
    v.pending <- None

(* Pick the lowest-serial locally healthy standby; both end nodes apply
   the same rule so they agree on which backup to activate. *)
and next_candidate t node v =
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

and try_activate t node v =
  match v.attempting with
  | Some _ -> () (* an activation is already in flight *)
  | None ->
    (match next_candidate t node v with
    | None ->
      tracef t "give-up" (fun f ->
          pf f "node %d: conn %d has no usable backup" node v.tv.vconn)
    | Some (serial, e) ->
      v.attempting <- Some serial;
      (match t.cfg.Protocol.priority with
      | Protocol.Delayed_activation slot ->
        let degree =
          Float.round (e.nu /. Netstate.lambda t.ns) |> int_of_float |> max 0
        in
        let delay = slot *. float_of_int degree in
        tracef t "act-delay" (fun f ->
            pf f "node %d: conn %d serial %d waits %.6fs" node v.tv.vconn
              serial delay);
        v.pending <-
          Some
            (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
               ~delay (fun () ->
                 v.pending <- None;
                 initiate_wave t node v serial))
      | Protocol.No_priority | Protocol.Preemptive ->
        initiate_wave t node v serial))

and initiate_wave t node v serial =
  let conn = v.tv.vconn in
  match find_entry t node (Protocol.cid ~conn ~serial) with
  | None -> ()
  | Some e ->
    if state t e <> Protocol.B then begin
      set_healthy v serial false;
      v.attempting <- None;
      try_activate t node v
    end
    else if transition_to_p t node e then begin
      emit t (Sim.Event.Activation { node; conn; serial; channel = e.cid });
      (match record_for t conn with
      | Some r when r.activated_at = None -> r.activated_at <- Some (now t)
      | _ -> ());
      let hops = Net.Path.hops e.path in
      if v.tv.is_src then begin
        let r = ensure_record t conn in
        r.resumed_at <- Some (now t);
        r.activations <- (serial, now t) :: r.activations;
        tracef t "resume" (fun f ->
            pf f "node %d: conn %d resumes on backup %d" node conn serial);
        if hops > 0 then
          rcc_send t ~from_node:node ~to_node:e.pnodes.(1)
            (Rcc.Control.Activation { conn; serial; channel = e.cid })
      end
      else if hops > 0 then
        rcc_send t ~from_node:node ~to_node:e.pnodes.(hops - 1)
          (Rcc.Control.Activation { conn; serial; channel = e.cid })
    end
    else begin
      (* Multiplexing failure right at the end node. *)
      set_healthy v serial false;
      v.attempting <- None;
      try_activate t node v
    end

(* Promote a backup entry to primary at this node, drawing spare
   bandwidth for the node's outgoing path link. *)
and transition_to_p t node e =
  let hops = Net.Path.hops e.path in
  let drawn =
    if e.pos >= hops then true
    else begin
      let l = e.path.Net.Path.links.(e.pos) in
      if t.pool.(l) +. 1e-9 >= e.bw then begin
        set_pool t l (t.pool.(l) -. e.bw);
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
    tracef t "activate" (fun f -> pf f "node %d: ch %d -> P" node e.cid);
    true
  end
  else begin
    mux_failure_at t node e;
    false
  end

and hold_activation t l e =
  let holds = Option.value ~default:[] (Hashtbl.find_opt t.activated l) in
  Hashtbl.replace t.activated l
    ({ a_conn = e.conn; a_serial = e.serial; a_nu = e.nu; a_bw = e.bw } :: holds)

and preempt_for t node e l =
  let holds = Option.value ~default:[] (Hashtbl.find_opt t.activated l) in
  (* Victims: already-activated backups with strictly lower priority
     (larger ν), most expendable first. *)
  let victims =
    List.sort (fun a b -> Float.compare b.a_nu a.a_nu)
      (List.filter (fun h -> h.a_nu > e.nu) holds)
  in
  (* Free victims one by one until the pool suffices. *)
  let rec go freed remaining =
    if t.pool.(l) +. 1e-9 >= e.bw then Some freed
    else
      match remaining with
      | [] -> None
      | v :: rest ->
        set_pool t l (t.pool.(l) +. v.a_bw);
        Hashtbl.replace t.activated l
          (List.filter (fun h -> h <> v)
             (Option.value ~default:[] (Hashtbl.find_opt t.activated l)));
        preempt_victim t node v l;
        go (v :: freed) rest
  in
  match go [] victims with
  | Some _ ->
    set_pool t l (t.pool.(l) -. e.bw);
    hold_activation t l e;
    true
  | None -> false

(* A preempted channel is handled as if disabled by a component failure
   (Section 4.3). *)
and preempt_victim t node v l =
  let cid = Protocol.cid ~conn:v.a_conn ~serial:v.a_serial in
  match find_entry t node cid with
  | None -> ()
  | Some victim_entry ->
    tracef t "preempt" (fun f ->
        pf f "node %d: ch %d preempted on link %d" node cid l);
    set_chan_state t node victim_entry Protocol.B ~cause:"preempt"
    (* so the report processing runs *);
    process_failure_report t node victim_entry (Net.Component.Link l)
      ~tag:"preempted"

and mux_failure_at t node e =
  let hops = Net.Path.hops e.path in
  let l = if e.pos < hops then e.path.Net.Path.links.(e.pos) else -1 in
  tracef t "mux-fail" (fun f ->
      pf f "node %d: ch %d spare exhausted on link %d" node e.cid l);
  (match state t e with
  | Protocol.P | Protocol.B ->
    set_chan_state t node e Protocol.U ~cause:"mux-fail";
    start_rejoin_timer t node e
  | Protocol.U | Protocol.N -> ());
  if l >= 0 then begin
    if scheme_reports_to_src t && e.pos > 0 then
      rcc_send t ~from_node:node ~to_node:e.pnodes.(e.pos - 1)
        (Rcc.Control.Mux_failure_report { channel = e.cid; link = l });
    if scheme_reports_to_dst t && e.pos < hops then
      rcc_send t ~from_node:node ~to_node:e.pnodes.(e.pos + 1)
        (Rcc.Control.Mux_failure_report { channel = e.cid; link = l })
  end

(* ---------- control-plane dispatch ---------- *)

and handle_control t node ~via c =
  match c with
  | Rcc.Control.Heartbeat _ -> hb_beat t ~via
  | Rcc.Control.Failure_report { channel; component } ->
    (match find_entry t node channel with
    | None -> ()
    | Some e -> process_failure_report t node e component ~tag:"report")
  | Rcc.Control.Mux_failure_report { channel; link } ->
    (match find_entry t node channel with
    | None -> ()
    | Some e ->
      process_failure_report t node e (Net.Component.Link link)
        ~tag:"mux-report")
  | Rcc.Control.Activation { conn; serial; channel } ->
    (match find_entry t node channel with
    | None -> ()
    | Some e ->
      (match state t e with
      | Protocol.P | Protocol.U | Protocol.N ->
        (* Already activated from the other end, or a fresher failure is
           being reported: discard (Section 4.2). *)
        ()
      | Protocol.B ->
        let sender = (Net.Topology.link t.topo via).Net.Topology.src in
        let toward_dst = e.pos > 0 && e.pnodes.(e.pos - 1) = sender in
        let hops = Net.Path.hops e.path in
        if transition_to_p t node e then begin
          (* Scheme 1: the source resumes when the activation reaches it. *)
          if e.pos = 0 then begin
            match view_of t node conn with
            | Some v when v.tv.is_src ->
              let r = ensure_record t conn in
              if r.resumed_at = None then begin
                r.resumed_at <- Some (now t);
                r.activations <- (serial, now t) :: r.activations;
                tracef t "resume" (fun f ->
                    pf f "node %d: conn %d resumes on backup %d" node conn
                      serial)
              end
            | _ -> ()
          end;
          if toward_dst && e.pos < hops then
            rcc_send t ~from_node:node ~to_node:e.pnodes.(e.pos + 1) c
          else if (not toward_dst) && e.pos > 0 then
            rcc_send t ~from_node:node ~to_node:e.pnodes.(e.pos - 1) c
        end))

(* ---------- best-effort (reconfiguration) dispatch ---------- *)

and handle_be t node msg =
  let channel = Protocol.be_channel msg in
  match find_entry t node channel with
  | None -> ()
  | Some e ->
    let hops = Net.Path.hops e.path in
    (match msg with
    | Protocol.Rejoin_request _ ->
      if e.pos = hops then begin
        (* Destination: channel is repairable — answer with a rejoin. *)
        if state t e = Protocol.U then begin
          cancel_rejoin_timer t node e;
          set_chan_state t node e Protocol.B ~cause:"rejoin";
          tracef t "rejoin" (fun f ->
              pf f "node %d: ch %d repaired (dst) -> B" node e.cid);
          if hops > 0 then
            ignore
              (be_send t ~from_node:node ~to_node:e.pnodes.(hops - 1)
                 (Protocol.Rejoin { channel = e.cid }))
        end
      end
      else if state t e = Protocol.U then forward_rejoin_request t node e
    | Protocol.Rejoin _ ->
      (match state t e with
      | Protocol.U ->
        cancel_rejoin_timer t node e;
        set_chan_state t node e Protocol.B ~cause:"rejoin";
        tracef t "rejoin" (fun f ->
            pf f "node %d: ch %d repaired -> B" node e.cid);
        if e.pos > 0 then
          ignore
            (be_send t ~from_node:node ~to_node:e.pnodes.(e.pos - 1)
               (Protocol.Rejoin { channel = e.cid }))
        else begin
          (* Repaired channel becomes a backup of its connection. *)
          match view_of t node e.conn with
          | None -> ()
          | Some v -> set_healthy v e.serial true
        end
      | Protocol.N ->
        (* Rejoin arrived after the timer expired: undo with a closure
           toward the destination (Fig. 6). *)
        tracef t "closure" (fun f ->
            pf f "node %d: ch %d rejoin too late, closing" node e.cid);
        if e.pos < hops then
          ignore
            (be_send t ~from_node:node ~to_node:e.pnodes.(e.pos + 1)
               (Protocol.Closure { channel = e.cid }))
      | Protocol.P | Protocol.B -> ())
    | Protocol.Closure _ ->
      cancel_rejoin_timer t node e;
      if state t e <> Protocol.N then begin
        set_chan_state t node e Protocol.N ~cause:"closure";
        tracef t "closure" (fun f -> pf f "node %d: ch %d closed" node e.cid)
      end;
      if e.pos < hops then
        ignore
          (be_send t ~from_node:node ~to_node:e.pnodes.(e.pos + 1)
             (Protocol.Closure { channel = e.cid })))

(* ---------- local failure detection ---------- *)

and detect t node comp =
  if t.node_alive.(node) then
    Array.iter
      (fun e ->
        match state t e with
        | Protocol.P | Protocol.B ->
          if Net.Path.uses_component t.topo e.path comp then begin
            tracef t "detect" (fun f ->
                pf f "node %d: ch %d lost %a" node e.cid Net.Component.pp comp);
            if e.serial = 0 then (
              match record_for t e.conn with
              | Some r when r.detected_at = None -> r.detected_at <- Some (now t)
              | _ -> ());
            process_failure_report t node e comp ~tag:"detect"
          end
        | Protocol.U | Protocol.N -> ())
      t.tpl.order.(node)

(* ---------- fault injection ---------- *)

let mark_affected_conns t comp =
  List.iter
    (fun conn ->
      let r = ensure_record t conn.Dconn.id in
      (match comp with
      | Net.Component.Node v
        when conn.Dconn.src = v || conn.Dconn.dst = v ->
        r.excluded <- true
      | _ -> ()))
    (Netstate.conns_with_primary_on t.ns comp)

let oracle_detection t = t.cfg.Protocol.detector = Protocol.Oracle

let do_fail_link t l =
  wire_transports t;
  if not t.link_failed.(l) then begin
    t.link_failed.(l) <- true;
    refresh_link_transport t l;
    tracef t "fail" (fun f -> pf f "link %d down" l);
    emit t (Sim.Event.Fault { component = Sim.Event.Link l; up = false });
    mark_affected_conns t (Net.Component.Link l);
    let lk = Net.Topology.link t.topo l in
    (* With a heartbeat detector, nobody is told: the neighbours must
       notice the silence (or the missing acks) themselves. *)
    if oracle_detection t then
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
           ~delay:t.cfg.Protocol.detection_latency
           (fun () ->
             detect t lk.Net.Topology.src (Net.Component.Link l);
             detect t lk.Net.Topology.dst (Net.Component.Link l)))
  end

let do_fail_node t v =
  wire_transports t;
  if t.node_alive.(v) then begin
    t.node_alive.(v) <- false;
    tracef t "fail" (fun f -> pf f "node %d down" v);
    emit t (Sim.Event.Fault { component = Sim.Event.Node v; up = false });
    let incident = Net.Topology.out_links t.topo v @ Net.Topology.in_links t.topo v in
    List.iter (fun l -> refresh_link_transport t l) incident;
    mark_affected_conns t (Net.Component.Node v);
    let neighbors =
      List.sort_uniq Int.compare
        (List.map
           (fun l ->
             let lk = Net.Topology.link t.topo l in
             if lk.Net.Topology.src = v then lk.Net.Topology.dst
             else lk.Net.Topology.src)
           incident)
    in
    if oracle_detection t then
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
           ~delay:t.cfg.Protocol.detection_latency
           (fun () ->
             List.iter (fun x -> detect t x (Net.Component.Node v)) neighbors))
    else ignore neighbors
  end

let fail_link t ~at l = ignore (Sim.Engine.schedule t.engine ~at (fun () -> do_fail_link t l))
let fail_node t ~at v = ignore (Sim.Engine.schedule t.engine ~at (fun () -> do_fail_node t v))

let repair_link t ~at l =
  ignore
    (Sim.Engine.schedule t.engine ~at (fun () ->
         wire_transports t;
         if t.link_failed.(l) then begin
           t.link_failed.(l) <- false;
           refresh_link_transport t l;
           tracef t "repair" (fun f -> pf f "link %d up" l);
           emit t (Sim.Event.Fault { component = Sim.Event.Link l; up = true })
         end))

let repair_node t ~at v =
  ignore
    (Sim.Engine.schedule t.engine ~at (fun () ->
         wire_transports t;
         if not t.node_alive.(v) then begin
           t.node_alive.(v) <- true;
           tracef t "repair" (fun f -> pf f "node %d up" v);
           emit t (Sim.Event.Fault { component = Sim.Event.Node v; up = true });
           List.iter
             (fun l -> refresh_link_transport t l)
             (Net.Topology.out_links t.topo v @ Net.Topology.in_links t.topo v)
         end))

let inject t ~at (sc : Failures.Scenario.t) =
  List.iter
    (function
      | Net.Component.Link l -> fail_link t ~at l
      | Net.Component.Node v -> fail_node t ~at v)
    sc.Failures.Scenario.components

let run ?until t =
  Sim.Prof.span "simnet.run" @@ fun () ->
  wire_transports t;
  Sim.Engine.run ?until t.engine

(* ---------- observations ---------- *)

let state_of t ~conn ~serial =
  let cid = Protocol.cid ~conn ~serial in
  match Netstate.find t.ns conn with
  | None -> []
  | Some c ->
    let path =
      if serial = 0 then Some c.Dconn.primary.Rtchan.Channel.path
      else
        Option.map (fun b -> b.Dconn.path) (Dconn.find_backup c ~serial)
    in
    (match path with
    | None -> []
    | Some p ->
      List.map
        (fun node ->
          match find_entry t node cid with
          | None -> Protocol.N
          | Some e -> state t e)
        (Net.Path.nodes t.topo p))

let fully_activated t ~conn ~serial =
  match state_of t ~conn ~serial with
  | [] -> false
  | states -> List.for_all (fun s -> s = Protocol.P) states

let finalize t =
  Hashtbl.iter
    (fun conn_id r ->
      match Netstate.find t.ns conn_id with
      | None -> ()
      | Some c ->
        r.recovered_serial <-
          List.find_map
            (fun b ->
              if fully_activated t ~conn:conn_id ~serial:b.Dconn.serial then
                Some b.Dconn.serial
              else None)
            c.Dconn.backups)
    t.recs;
  (* Decompose each recovery into the four protocol phases and feed them
     to the timer metrics.  Guarded so a second finalize cannot
     double-count; iteration is in connection order so that parallel
     sweeps merge the same sample sequence as serial ones. *)
  if t.telemetry && not t.phases_observed then begin
    t.phases_observed <- true;
    let obs name v =
      Sim.Metrics.observe (Sim.Metrics.timer t.metrics name) (Float.max 0.0 v)
    in
    let sorted =
      List.sort
        (fun a b -> Int.compare a.conn b.conn)
        (Hashtbl.fold (fun _ r acc -> r :: acc) t.recs [])
    in
    List.iter
      (fun r ->
        if not r.excluded then begin
          (match r.detected_at with
          | Some d -> obs "phase.detect" (d -. r.failure_time)
          | None -> ());
          let informed =
            match (r.src_informed, r.dst_informed) with
            | Some a, Some b -> Some (Float.min a b)
            | (Some _ as s), None | None, (Some _ as s) -> s
            | None, None -> None
          in
          (match (r.detected_at, informed) with
          | Some d, Some i -> obs "phase.report" (i -. d)
          | _ -> ());
          (match (informed, r.activated_at) with
          | Some i, Some a -> obs "phase.activate" (a -. i)
          | _ -> ());
          (match (r.activated_at, r.resumed_at) with
          | Some a, Some res -> obs "phase.switch" (res -. a)
          | _ -> ())
        end)
      sorted;
    Sim.Metrics.set (Sim.Metrics.gauge t.metrics "sim.finalized_at") (now t)
  end;
  match t.monitor with
  | Some m -> Sim.Monitor.finish m (* idempotent end-of-stream checks *)
  | None -> ()

let records t =
  List.sort
    (fun a b -> Int.compare a.conn b.conn)
    (Hashtbl.fold (fun _ r acc -> r :: acc) t.recs [])

let chan_state_at t ~node ~conn ~serial =
  match find_entry t node (Protocol.cid ~conn ~serial) with
  | None -> Protocol.N
  | Some e -> state t e

let link_is_alive = link_alive

let node_is_alive t v = t.node_alive.(v)

let active_serial_at_source t ~conn =
  match Netstate.find t.ns conn with
  | None -> None
  | Some c ->
    let serials =
      0 :: List.map (fun b -> b.Dconn.serial) c.Dconn.backups
    in
    List.find_opt
      (fun serial -> chan_state_at t ~node:c.Dconn.src ~conn ~serial = Protocol.P)
      (List.sort Int.compare serials)

let rcc_messages_sent t =
  Array.fold_left (fun acc tr -> acc + Rcc.Transport.stats_sent tr) 0 t.rcc

let control_messages_delivered t =
  Array.fold_left (fun acc tr -> acc + Rcc.Transport.stats_delivered tr) 0 t.rcc

let rcc_messages_dropped t =
  Array.fold_left (fun acc tr -> acc + Rcc.Transport.stats_dropped tr) 0 t.rcc

(* ---------- impairment & detector plumbing ---------- *)

let set_impairment t imp =
  t.impair <- Some imp;
  wire_transports t;
  apply_impairment t

let detector_state t l =
  if Array.length t.monitors = 0 then None
  else Some (Detector.state t.monitors.(l))

let heartbeat_confirms t = t.hb_confirms
let heartbeat_recoveries t = t.hb_recoveries
