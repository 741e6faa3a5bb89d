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

(* Sequence numbers are small non-negative ints: the identity is a good
   hash for them and much cheaper than the polymorphic one. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type sink = link:int -> op:Sim.Event.rcc_op -> seq:int -> bytes:int -> unit

let no_sink ~link:_ ~op:_ ~seq:_ ~bytes:_ = ()

type t = {
  engine : Sim.Engine.t;
  params : params;
  link : int;
  deliver : Control.t -> unit;
  mutable alive : bool;
  mutable impair : impairment option;
  mutable sink : sink;
  queue : Control.t Queue.t;
  pending : (Control.t, unit) Hashtbl.t;
      (* dedup of queued messages; heartbeats, unique by their beat
         number, skip it *)
  (* Sender-side state of the seqs in [lo, next_seq), at slot
     [seq land (capacity - 1)] of three arrays of one power-of-two
     capacity: a seq below [lo] is neither unacked nor airborne, and [lo]
     moves up past every such seq. *)
  mutable lo : int;
  mutable armed : Bytes.t; (* '\001': the message awaits its ack *)
  mutable timer : Sim.Engine.handle array;
      (* the armed message's retransmit timer; each retransmission
         re-arms it.  Empty until the first timer gives a fill value. *)
  mutable airborne : int array; (* copies scheduled but not yet landed *)
  mutable unacked : int;
  seen : unit Itbl.t; (* receiver-side dedup *)
  mutable order : int array;
      (* ring of the seqs in [seen], in arrival order, for window
         eviction; grown by doubling up to [seen_window] *)
  mutable order_head : int;
  mutable order_len : int;
  mutable next_seq : int;
  mutable next_eligible : float;
  mutable pump_scheduled : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create engine ~params ~link ~deliver =
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
    impair = None;
    sink = no_sink;
    queue = Queue.create ();
    pending = Hashtbl.create 8;
    lo = 0;
    armed = Bytes.make 8 '\000';
    timer = [||];
    airborne = Array.make 8 0;
    unacked = 0;
    seen = Itbl.create 16;
    order = [||];
    order_head = 0;
    order_len = 0;
    next_seq = 0;
    next_eligible = 0.0;
    pump_scheduled = false;
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let in_flight t = t.unacked
let stats_sent t = t.sent
let stats_delivered t = t.delivered
let stats_dropped t = t.dropped
let seen_size t = Itbl.length t.seen

let set_impairment t i = t.impair <- i
let set_sink t f = t.sink <- f
let emit t ~op ~seq ~bytes = t.sink ~link:t.link ~op ~seq ~bytes

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

(* ---------- per-seq sender state ---------- *)

let slot t seq = seq land (Array.length t.airborne - 1)
let is_armed t seq = Bytes.unsafe_get t.armed (slot t seq) <> '\000'

(* Take seq [next_seq] into the window, doubling the arrays when the
   window fills them. *)
let open_seq t =
  let cap = Array.length t.airborne in
  if t.next_seq - t.lo = cap then begin
    let mask = (2 * cap) - 1 in
    let armed = Bytes.make (2 * cap) '\000' and air = Array.make (2 * cap) 0 in
    let timer =
      if Array.length t.timer = 0 then [||]
      else Array.make (2 * cap) t.timer.(0)
    in
    for seq = t.lo to t.next_seq - 1 do
      Bytes.set armed (seq land mask) (Bytes.get t.armed (slot t seq));
      air.(seq land mask) <- t.airborne.(slot t seq);
      if Array.length timer > 0 then timer.(seq land mask) <- t.timer.(slot t seq)
    done;
    t.armed <- armed;
    t.airborne <- air;
    t.timer <- timer
  end;
  Bytes.set t.armed (slot t t.next_seq) '\000';
  t.airborne.(slot t t.next_seq) <- 0

let settle t =
  while
    t.lo < t.next_seq && (not (is_armed t t.lo)) && t.airborne.(slot t t.lo) = 0
  do
    t.lo <- t.lo + 1
  done

let unacked t seq = seq >= t.lo && seq < t.next_seq && is_armed t seq

let arm t seq h =
  if Array.length t.timer = 0 then
    t.timer <- Array.make (Array.length t.airborne) h;
  t.timer.(slot t seq) <- h;
  if not (is_armed t seq) then begin
    Bytes.set t.armed (slot t seq) '\001';
    t.unacked <- t.unacked + 1
  end

let disarm t seq =
  Bytes.set t.armed (slot t seq) '\000';
  t.unacked <- t.unacked - 1;
  settle t

let note_airborne t seq delta =
  let i = slot t seq in
  t.airborne.(i) <- t.airborne.(i) + delta;
  if t.airborne.(i) = 0 then settle t

let send_count = Sim.Prof.counter "rcc.send"
let deliver_count = Sim.Prof.counter "rcc.deliver"

let order_slot t i = (t.order_head + i) mod Array.length t.order

let remember t seq =
  let cap = Array.length t.order in
  if t.order_len = cap then begin
    let ring = Array.make (min t.params.seen_window (max 16 (2 * cap))) 0 in
    for i = 0 to t.order_len - 1 do
      ring.(i) <- t.order.(order_slot t i)
    done;
    t.order <- ring;
    t.order_head <- 0
  end;
  t.order.(order_slot t t.order_len) <- seq;
  t.order_len <- t.order_len + 1

let receive t (m : rcc_message) =
  if not (Itbl.mem t.seen m.seq) then begin
    emit t ~op:Sim.Event.Deliver ~seq:m.seq ~bytes:m.bytes;
    (* Sliding-window bound on the dedup table: a seq old enough to be
       evicted can no longer be retransmitted (the sender has either been
       acked or has given up long before [seen_window] newer messages
       went by). *)
    if t.order_len = t.params.seen_window then begin
      Itbl.remove t.seen t.order.(t.order_head);
      t.order_head <- order_slot t 1;
      t.order_len <- t.order_len - 1
    end;
    Itbl.add t.seen m.seq ();
    remember t m.seq;
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
  if unacked t seq then begin
    emit t ~op:Sim.Event.Ack ~seq ~bytes:ack_bytes;
    Sim.Engine.cancel t.engine t.timer.(slot t seq);
    disarm t seq
  end

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
        disarm t m.seq;
        t.dropped <- t.dropped + 1;
        emit t ~op:Sim.Event.Drop ~seq:m.seq ~bytes:m.bytes
      end
      else arm t m.seq (transmit t m ~attempt:(attempt + 1)))

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
    open_seq t;
    t.next_seq <- t.next_seq + 1;
    t.next_eligible <- Sim.Engine.now t.engine +. (1.0 /. t.params.r_max);
    arm t m.seq (transmit t m ~attempt:1);
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
    seq < t.lo || ((not (is_armed t seq)) && t.airborne.(slot t seq) = 0)
  in
  let kept = ref 0 in
  for i = 0 to t.order_len - 1 do
    let seq = t.order.(order_slot t i) in
    if stale seq then Itbl.remove t.seen seq
    else begin
      t.order.(order_slot t !kept) <- seq;
      incr kept
    end
  done;
  t.order_len <- !kept

let set_alive t b =
  let was = t.alive in
  t.alive <- b;
  if b && not was then prune_seen t
