(* The event-driven driver of [Node]: it implements the handler's
   context over one engine, a pair of RCCs per link, the detectors, fault
   injection and the typed telemetry plane. *)

type t = {
  engine : Sim.Engine.t;
  topo : Net.Topology.t;
  ns : Netstate.t;
  cfg : Protocol.config;
  trace : Sim.Trace.t;
  node : Sim.Engine.handle Node.t;
  mutable rcc : Rcc.Transport.t array;
  link_failed : bool array;
  node_alive : bool array;
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

type record = Node.record

let engine t = t.engine
let netstate t = t.ns
let trace t = t.trace
let metrics t = t.metrics
let node t = t.node
let now t = Sim.Engine.now t.engine

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

let detect t node comp = Node.handle t.node node (Node.Detect comp)

(* [node]'s detector declares its adjacent link [l] failed. *)
let confirm t node l =
  t.hb_confirms <- t.hb_confirms + 1;
  emit t (Sim.Event.Detector { node; link = l; signal = Sim.Event.Confirm });
  detect t node (Net.Component.Link l)

(* ---------- heartbeat failure detection ---------- *)

(* One keepalive stream per simplex link, carried over the link's own RCC
   so that detection is subject to the same loss/duplication/delay as the
   rest of the control plane.  The receiver runs a {!Detector} per
   incoming link; the sender treats exhausted retransmissions (no ack
   after [max_retransmits]) as its own confirmation.  Ticks are staggered
   by link id so the whole network does not beat in lock-step. *)

let hb_send t l =
  let src = (Net.Topology.link t.topo l).Net.Topology.src in
  (* A dead node's daemon is silent, but keep ticking: the node may be
     repaired later. *)
  if t.node_alive.(src) then begin
    t.hb_beats.(l) <- t.hb_beats.(l) + 1;
    Rcc.Transport.send t.rcc.(l)
      (Rcc.Control.Heartbeat { node = src; beat = t.hb_beats.(l) })
  end

let hb_check t l =
  let lk = Net.Topology.link t.topo l in
  let dst = lk.Net.Topology.dst in
  if t.node_alive.(dst) then
    match Detector.check t.monitors.(l) ~now:(now t) with
    | `Confirmed -> confirm t dst l
    | `Suspected ->
      emit t
        (Sim.Event.Detector { node = dst; link = l; signal = Sim.Event.Suspect })
    | `Fine -> ()

let start_heartbeats t hb =
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

let sender_drop t l =
  if not t.sender_reported.(l) then begin
    let lk = Net.Topology.link t.topo l in
    let src = lk.Net.Topology.src in
    if t.node_alive.(src) then begin
      t.sender_reported.(l) <- true;
      confirm t src l
    end
  end

(* One RCC step of link [link], reported by its transport as plain ints:
   the typed stream gets it as an [Rcc] event without building one, and
   in heartbeat mode a drop is the sender-side failure signal. *)
let rcc_step t ~link ~op ~seq ~bytes =
  if t.telemetry then begin
    Sim.Trace.record_rcc t.trace ~time:(now t) ~link ~op ~seq ~bytes;
    (match t.monitor with Some m -> Sim.Monitor.feed_rcc m op | None -> ());
    incr_slot t (rcc_slot + index_of rcc_ops op)
  end;
  match op with
  | Sim.Event.Drop when Array.length t.monitors > 0 -> sender_drop t link
  | _ -> ()

let hb_beat t ~via =
  if Array.length t.monitors > 0 then
    match Detector.beat t.monitors.(via) ~now:(now t) with
    | `Recovered ->
      t.hb_recoveries <- t.hb_recoveries + 1;
      let dst = (Net.Topology.link t.topo via).Net.Topology.dst in
      emit t
        (Sim.Event.Detector { node = dst; link = via; signal = Sim.Event.Clear })
    | `Fine -> ()

(* ---------- transports ---------- *)

let apply_impairment t =
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

(* Heartbeats stay here; every other control message goes to the
   receiving node's handler. *)
let wire_transports t =
  if Array.length t.rcc = 0 then begin
    t.rcc <-
      Array.init (Net.Topology.num_links t.topo) (fun l ->
          let lk = Net.Topology.link t.topo l in
          let src = lk.Net.Topology.src and dst = lk.Net.Topology.dst in
          Rcc.Transport.create t.engine ~params:t.cfg.Protocol.rcc ~link:l
            ~deliver:(fun c ->
              if t.node_alive.(dst) then
                match c with
                | Rcc.Control.Heartbeat _ -> hb_beat t ~via:l
                | msg -> Node.handle t.node dst (Node.Control { from_ = src; msg })));
    let sink ~link ~op ~seq ~bytes = rcc_step t ~link ~op ~seq ~bytes in
    Array.iter (fun tr -> Rcc.Transport.set_sink tr sink) t.rcc;
    apply_impairment t;
    match t.cfg.Protocol.detector with
    | Protocol.Heartbeat hb -> start_heartbeats t hb
    | Protocol.Oracle -> ()
  end

(* ---------- the handler's context ---------- *)

let rcc_send t ~from_node ~to_node c =
  wire_transports t;
  match Net.Topology.find_link t.topo ~src:from_node ~dst:to_node with
  | None -> () (* [Node] sends only to path neighbours *)
  | Some l -> Rcc.Transport.send t.rcc.(l) c

let be_send t ~from_node ~to_node msg =
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
               Node.handle t.node to_node (Node.Best_effort msg)));
      true
    end

(* The context's closures reach the simulation that holds the node they
   serve; [create] ties that knot through [lazy]. *)
let context (t : t Lazy.t) engine ~telemetry =
  {
    Node.now = (fun () -> Sim.Engine.now engine);
    rcc_send =
      (fun ~from_node ~to_node c -> rcc_send (Lazy.force t) ~from_node ~to_node c);
    be_send =
      (fun ~from_node ~to_node m -> be_send (Lazy.force t) ~from_node ~to_node m);
    set_timer =
      (fun delay f ->
        Sim.Engine.schedule_after ~klass:Sim.Engine.Timer engine ~delay f);
    cancel_timer = Sim.Engine.cancel engine;
    node_alive = (fun v -> (Lazy.force t).node_alive.(v));
    telemetry;
    emit = (fun ev -> emit (Lazy.force t) ev);
  }

let templates : (Netstate.t, int * Node.template) Sim.Memo.t = Sim.Memo.create ()

let template_of ns =
  let generation = Netstate.generation ns in
  snd
    (Sim.Memo.find_or_build templates ns
       ~current:(fun (g, _) -> g = generation)
       (fun () ->
         Sim.Prof.count "simnet.template_builds";
         (generation, Node.template ns)))

let create ?(config = Protocol.default_config) ?(telemetry = false) ?monitor ns
    =
  Sim.Prof.span "simnet.create" @@ fun () ->
  (* An attached monitor needs the event stream: force telemetry on. *)
  let telemetry = telemetry || monitor <> None in
  let topo = Netstate.topology ns in
  let tpl = template_of ns in
  let engine = Sim.Engine.create () in
  let rec t =
    lazy
      {
        engine;
        topo;
        ns;
        cfg = config;
        trace = Sim.Trace.create ();
        node = Node.create (context t engine ~telemetry) config ns tpl;
        rcc = [||];
        link_failed = Array.make (Net.Topology.num_links topo) false;
        node_alive = Array.make (Net.Topology.num_nodes topo) true;
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
  let t = Lazy.force t in
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

(* ---------- fault injection ---------- *)

(* The oracle tells the fault's neighbours after the detection latency.
   A heartbeat detector tells nobody: the neighbours must notice the
   silence (or the missing acks) themselves. *)
let notify t comp neighbours =
  if t.cfg.Protocol.detector = Protocol.Oracle then
    ignore
      (Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
         ~delay:t.cfg.Protocol.detection_latency (fun () ->
           List.iter (fun x -> detect t x comp) neighbours))

let do_fail_link t l =
  wire_transports t;
  if not t.link_failed.(l) then begin
    t.link_failed.(l) <- true;
    refresh_link_transport t l;
    emit t (Sim.Event.Fault { component = Sim.Event.Link l; up = false });
    Node.fault t.node (Net.Component.Link l);
    let lk = Net.Topology.link t.topo l in
    notify t (Net.Component.Link l) [ lk.Net.Topology.src; lk.Net.Topology.dst ]
  end

let do_fail_node t v =
  wire_transports t;
  if t.node_alive.(v) then begin
    t.node_alive.(v) <- false;
    emit t (Sim.Event.Fault { component = Sim.Event.Node v; up = false });
    let incident = Net.Topology.out_links t.topo v @ Net.Topology.in_links t.topo v in
    List.iter (fun l -> refresh_link_transport t l) incident;
    Node.fault t.node (Net.Component.Node v);
    notify t (Net.Component.Node v)
      (List.sort_uniq Int.compare
         (List.map
            (fun l ->
              let lk = Net.Topology.link t.topo l in
              if lk.Net.Topology.src = v then lk.Net.Topology.dst
              else lk.Net.Topology.src)
            incident))
  end

let schedule t ~at f = ignore (Sim.Engine.schedule t.engine ~at f)
let fail_link t ~at l = schedule t ~at (fun () -> do_fail_link t l)
let fail_node t ~at v = schedule t ~at (fun () -> do_fail_node t v)

let repair_link t ~at l =
  schedule t ~at (fun () ->
      wire_transports t;
      if t.link_failed.(l) then begin
        t.link_failed.(l) <- false;
        refresh_link_transport t l;
        emit t (Sim.Event.Fault { component = Sim.Event.Link l; up = true })
      end)

let repair_node t ~at v =
  schedule t ~at (fun () ->
      wire_transports t;
      if not t.node_alive.(v) then begin
        t.node_alive.(v) <- true;
        emit t (Sim.Event.Fault { component = Sim.Event.Node v; up = true });
        List.iter
          (fun l -> refresh_link_transport t l)
          (Net.Topology.out_links t.topo v @ Net.Topology.in_links t.topo v)
      end)

let inject t ~at (sc : Failures.Scenario.t) =
  List.iter
    (function
      | Net.Component.Link l -> fail_link t ~at l
      | Net.Component.Node v -> fail_node t ~at v)
    sc.Failures.Scenario.components

let run ~until t =
  Sim.Prof.span "simnet.run" @@ fun () ->
  wire_transports t;
  Sim.Engine.run ~until t.engine

(* ---------- observations ---------- *)

let records t = Node.records t.node

let finalize t =
  let records = records t in
  List.iter
    (fun r ->
      match Netstate.find t.ns r.Node.conn with
      | None -> ()
      | Some c ->
        r.Node.recovered_serial <-
          List.find_map
            (fun b ->
              if Node.fully_activated t.node ~conn:r.Node.conn ~serial:b.Dconn.serial
              then Some b.Dconn.serial
              else None)
            c.Dconn.backups)
    records;
  (* Decompose each recovery into the four protocol phases and feed them
     to the timer metrics.  Guarded so a second finalize cannot
     double-count; iteration is in connection order so that parallel
     sweeps merge the same sample sequence as serial ones. *)
  if t.telemetry && not t.phases_observed then begin
    t.phases_observed <- true;
    (* Each timer is resolved on its first observation, which keeps the
       registry's key order. *)
    let timer name = lazy (Sim.Metrics.timer t.metrics name) in
    let detect = timer "phase.detect" and report = timer "phase.report"
    and activate = timer "phase.activate" and switch = timer "phase.switch" in
    let obs tm v = Sim.Metrics.observe (Lazy.force tm) (Float.max 0.0 v) in
    List.iter
      (fun r ->
        if not r.Node.excluded then begin
          (match r.Node.detected_at with
          | Some d -> obs detect (d -. r.Node.failure_time)
          | None -> ());
          let informed =
            match (r.Node.src_informed, r.Node.dst_informed) with
            | Some a, Some b -> Some (Float.min a b)
            | (Some _ as s), None | None, (Some _ as s) -> s
            | None, None -> None
          in
          (match (r.Node.detected_at, informed) with
          | Some d, Some i -> obs report (i -. d)
          | _ -> ());
          (match (informed, r.Node.activated_at) with
          | Some i, Some a -> obs activate (a -. i)
          | _ -> ());
          (match (r.Node.activated_at, r.Node.resumed_at) with
          | Some a, Some res -> obs switch (res -. a)
          | _ -> ())
        end)
      records;
    Sim.Metrics.set (Sim.Metrics.gauge t.metrics "sim.finalized_at") (now t)
  end;
  match t.monitor with
  | Some m -> Sim.Monitor.finish m (* idempotent end-of-stream checks *)
  | None -> ()

let alive t = function
  | Net.Component.Link l -> link_alive t l
  | Net.Component.Node v -> t.node_alive.(v)

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

let heartbeat_confirms t = t.hb_confirms
let heartbeat_recoveries t = t.hb_recoveries
