type params = {
  s_max : int;
  r_max : float;
  d_max : float;
  retransmit_timeout : float;
  max_retransmits : int;
  seen_window : int;
}

let default_params =
  {
    s_max = 8192;
    r_max = 10_000.0;
    d_max = 1e-3;
    retransmit_timeout = 4e-3;
    max_retransmits = 8;
    seen_window = 4096;
  }

type impairment = dir:[ `Data | `Ack ] -> bytes:int -> now:float -> float list

(* Nominal wire size of a hop-by-hop acknowledgment (seq + tag). *)
let ack_bytes = 8

type rcc_message = { seq : int; payload : Control.t list; bytes : int }

module Itbl = Hashtbl.Make (Int)

type t = {
  engine : Sim.Engine.t;
  params : params;
  link : int;
  deliver : Control.t -> unit;
  mutable alive : bool;
  mutable impair : impairment option;
  mutable on_drop : unit -> unit;
  mutable on_event : (Sim.Event.t -> unit) option;
  queue : Control.t Queue.t;
  pending : (Control.t, unit) Hashtbl.t;
      (* dedup of queued messages; heartbeats, unique by their beat
         number, skip it *)
  unacked : Sim.Engine.handle Itbl.t;
      (* seq -> retransmit timer of a message awaiting its hop-by-hop ack;
         each retransmission re-arms it *)
  seen : unit Itbl.t; (* receiver-side dedup *)
  seen_order : int Queue.t; (* arrival order, for window eviction *)
  airborne : int Itbl.t; (* seq -> copies scheduled but not yet landed *)
  mutable next_seq : int;
  mutable next_eligible : float;
  mutable pump_scheduled : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ?impair engine ~params ~link ~deliver =
  if params.s_max <= 0 then invalid_arg "Transport.create: s_max must be positive";
  if params.r_max <= 0.0 then invalid_arg "Transport.create: r_max must be positive";
  if params.d_max <= 0.0 then invalid_arg "Transport.create: d_max must be positive";
  if params.seen_window <= 0 then
    invalid_arg "Transport.create: seen_window must be positive";
  {
    engine;
    params;
    link;
    deliver;
    alive = true;
    impair;
    on_drop = (fun () -> ());
    on_event = None;
    queue = Queue.create ();
    pending = Hashtbl.create 64;
    unacked = Itbl.create 16;
    seen = Itbl.create 16;
    seen_order = Queue.create ();
    airborne = Itbl.create 16;
    next_seq = 0;
    next_eligible = 0.0;
    pump_scheduled = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let in_flight t = Itbl.length t.unacked
let stats_sent t = t.sent
let stats_delivered t = t.delivered
let stats_dropped t = t.dropped
let seen_size t = Itbl.length t.seen

let set_impairment t i = t.impair <- i
let set_drop_handler t f = t.on_drop <- f
let set_event_sink t s = t.on_event <- s

let emit t ~op ~seq ~bytes =
  match t.on_event with
  | None -> ()
  | Some f -> f (Sim.Event.Rcc { link = t.link; op; seq; bytes })

(* Delivery latency: a fraction of the worst case that grows with the RCC
   message size, so the D_max bound is respected but not trivially equal. *)
let delivery_delay t bytes =
  let fill = float_of_int bytes /. float_of_int t.params.s_max in
  t.params.d_max *. (0.25 +. (0.75 *. Float.min 1.0 fill))

(* Copies that survive the link: without an impairment model exactly one,
   on time; with one, whatever the model decides (possibly none, possibly
   duplicates, each with its own extra delay). *)
let copies t ~dir ~bytes =
  match t.impair with
  | None -> [ 0.0 ]
  | Some f -> f ~dir ~bytes ~now:(Sim.Engine.now t.engine)

let note_airborne t seq delta =
  let n = delta + Option.value ~default:0 (Itbl.find_opt t.airborne seq) in
  if n <= 0 then Itbl.remove t.airborne seq else Itbl.replace t.airborne seq n

let send_count = Sim.Prof.counter "rcc.send"
let deliver_count = Sim.Prof.counter "rcc.deliver"

let receive t (m : rcc_message) =
  if not (Itbl.mem t.seen m.seq) then begin
    emit t ~op:Sim.Event.Deliver ~seq:m.seq ~bytes:m.bytes;
    Itbl.add t.seen m.seq ();
    Queue.add m.seq t.seen_order;
    (* Sliding-window bound on the dedup table: a seq old enough to be
       evicted can no longer be retransmitted (the sender has either been
       acked or has given up long before [seen_window] newer messages
       went by). *)
    while Queue.length t.seen_order > t.params.seen_window do
      let old = Queue.pop t.seen_order in
      Itbl.remove t.seen old
    done;
    List.iter
      (fun c ->
        t.delivered <- t.delivered + 1;
        Sim.Prof.incr deliver_count;
        t.deliver c)
      m.payload
  end

(* The first ack withdraws the retransmit timer: left armed it would
   fire [retransmit_timeout] later only to find the message acked. *)
let ack_received t seq =
  match Itbl.find_opt t.unacked seq with
  | None -> ()
  | Some timer ->
    emit t ~op:Sim.Event.Ack ~seq ~bytes:ack_bytes;
    Sim.Engine.cancel t.engine timer;
    Itbl.remove t.unacked seq

(* The hop-by-hop ack traverses the same impaired link in the reverse
   direction: it can be lost or duplicated like any other transmission,
   which is what makes retransmission of already-delivered messages (and
   hence the receiver-side dedup) reachable under pure message loss. *)
let send_ack t (m : rcc_message) =
  let ack_delay = t.params.d_max *. 0.25 in
  List.iter
    (fun extra ->
      ignore
        (Sim.Engine.schedule_after ~klass:Sim.Engine.Message t.engine
           ~delay:(ack_delay +. extra)
           (fun () -> if t.alive then ack_received t m.seq)))
    (copies t ~dir:`Ack ~bytes:ack_bytes)

(* Returns the handle of the retransmit timer it arms. *)
let rec transmit t (m : rcc_message) ~attempt =
  t.sent <- t.sent + 1;
  Sim.Prof.incr send_count;
  emit t
    ~op:(if attempt = 1 then Sim.Event.Send else Sim.Event.Retransmit)
    ~seq:m.seq ~bytes:m.bytes;
  if t.alive then begin
    let base = delivery_delay t m.bytes in
    List.iter
      (fun extra ->
        note_airborne t m.seq 1;
        ignore
          (Sim.Engine.schedule_after ~klass:Sim.Engine.Message t.engine
             ~delay:(base +. extra) (fun () ->
               note_airborne t m.seq (-1);
               if t.alive then begin
                 receive t m;
                 send_ack t m
               end)))
      (copies t ~dir:`Data ~bytes:m.bytes)
  end;
  (* Retransmission timer runs regardless of link state: the paper's BCP
     daemon "resends the unacknowledged RCC message".  It fires only while
     the message is unacked: [ack_received] cancels it. *)
  Sim.Engine.schedule_after ~klass:Sim.Engine.Timer t.engine
    ~delay:t.params.retransmit_timeout (fun () ->
      if attempt >= t.params.max_retransmits then begin
        Itbl.remove t.unacked m.seq;
        t.dropped <- t.dropped + 1;
        emit t ~op:Sim.Event.Drop ~seq:m.seq ~bytes:m.bytes;
        t.on_drop ()
      end
      else Itbl.replace t.unacked m.seq (transmit t m ~attempt:(attempt + 1)))

let is_heartbeat = function Control.Heartbeat _ -> true | _ -> false

let pack t =
  (* Greedy FIFO packing up to s_max bytes, at least one message. *)
  let rec take acc bytes =
    match Queue.peek_opt t.queue with
    | None -> (List.rev acc, bytes)
    | Some c ->
      let sz = Control.size_bytes c in
      if acc <> [] && bytes + sz > t.params.s_max then (List.rev acc, bytes)
      else begin
        ignore (Queue.pop t.queue);
        if not (is_heartbeat c) then Hashtbl.remove t.pending c;
        take (c :: acc) (bytes + sz)
      end
  in
  take [] 0

let rec pump t =
  t.pump_scheduled <- false;
  if not (Queue.is_empty t.queue) then begin
    let payload, bytes = pack t in
    let m = { seq = t.next_seq; payload; bytes } in
    t.next_seq <- t.next_seq + 1;
    t.next_eligible <- Sim.Engine.now t.engine +. (1.0 /. t.params.r_max);
    Itbl.replace t.unacked m.seq (transmit t m ~attempt:1);
    schedule_pump t
  end

and schedule_pump t =
  if (not t.pump_scheduled) && not (Queue.is_empty t.queue) then begin
    let now = Sim.Engine.now t.engine in
    let at = Float.max now t.next_eligible in
    t.pump_scheduled <- true;
    ignore (Sim.Engine.schedule t.engine ~at (fun () -> pump t))
  end

(* A heartbeat is its sender's last action in its event.  When it finds
   the RCC idle and may go out now, the pump that [schedule_pump] would
   queue at [now] is the very next event to run unless another event is
   already due at [now]; only then is running it inline the same run,
   event for event and PRNG draw for draw. *)
let pump_inline t =
  Queue.length t.queue = 1
  && (not t.pump_scheduled)
  && t.next_eligible <= Sim.Engine.now t.engine
  && not (Sim.Engine.due_now t.engine)

let send t c =
  if is_heartbeat c then begin
    Queue.add c t.queue;
    if pump_inline t then pump t else schedule_pump t
  end
  else if not (Hashtbl.mem t.pending c) then begin
    Hashtbl.add t.pending c ();
    Queue.add c t.queue;
    schedule_pump t
  end

(* On link repair, drop dedup state for seqs that can never arrive again:
   not awaiting an ack (so the sender will not retransmit them) and with
   no copy still scheduled in the event queue.  This keeps [seen] from
   accumulating one entry per message across long repair cycles while
   never re-admitting a duplicate. *)
let prune_seen t =
  let stale seq =
    (not (Itbl.mem t.unacked seq)) && not (Itbl.mem t.airborne seq)
  in
  if Queue.length t.seen_order > 0 then begin
    let keep = Queue.create () in
    Queue.iter
      (fun seq ->
        if stale seq then Itbl.remove t.seen seq else Queue.add seq keep)
      t.seen_order;
    Queue.clear t.seen_order;
    Queue.transfer keep t.seen_order
  end

let set_alive t b =
  let was = t.alive in
  t.alive <- b;
  if b && not was then prune_seen t
