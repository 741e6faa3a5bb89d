(* Reference for [Sim.Monitor]: the streaming auditor as it stood
   before its state moved to int-specialised tables — tuple-keyed
   polymorphic [Hashtbl]s, a [sprintf] coverage key per event, and a walk
   over every channel of the context on each fault.  The twin tests feed
   it and the library monitor the same streams and compare everything
   they report.  Its types are the library's, so one context serves
   both. *)

open Sim

type kind = Sim.Monitor.kind =
  | Illegal_transition
  | State_mismatch
  | Spare_overdraw
  | Mux_bound
  | Capacity_exceeded
  | Double_activation
  | Activation_without_failure
  | Phase_order
  | Timer_misfire

let kind_to_string = function
  | Illegal_transition -> "illegal-transition"
  | State_mismatch -> "state-mismatch"
  | Spare_overdraw -> "spare-overdraw"
  | Mux_bound -> "mux-bound"
  | Capacity_exceeded -> "capacity-exceeded"
  | Double_activation -> "double-activation"
  | Activation_without_failure -> "activation-without-failure"
  | Phase_order -> "phase-order"
  | Timer_misfire -> "timer-misfire"

let kind_of_string = function
  | "illegal-transition" -> Some Illegal_transition
  | "state-mismatch" -> Some State_mismatch
  | "spare-overdraw" -> Some Spare_overdraw
  | "mux-bound" -> Some Mux_bound
  | "capacity-exceeded" -> Some Capacity_exceeded
  | "double-activation" -> Some Double_activation
  | "activation-without-failure" -> Some Activation_without_failure
  | "phase-order" -> Some Phase_order
  | "timer-misfire" -> Some Timer_misfire
  | _ -> None

type violation = Sim.Monitor.violation = {
  kind : kind;
  index : int;
  time : float;
  conn : int option;
  link : int option;
  node : int option;
  channel : int option;
  expected : string;
  actual : string;
}

exception Violation = Sim.Monitor.Violation

let pp_violation ppf v =
  let opt name = function
    | None -> ()
    | Some x -> Format.fprintf ppf " %s=%d" name x
  in
  Format.fprintf ppf "[%s] event #%d t=%.6f:" (kind_to_string v.kind) v.index
    v.time;
  opt "conn" v.conn;
  opt "link" v.link;
  opt "node" v.node;
  opt "channel" v.channel;
  Format.fprintf ppf " expected %s, got %s" v.expected v.actual

type link_ctx = Sim.Monitor.link_ctx = { capacity : float; reserved : float; spare : float }

type chan_ctx = Sim.Monitor.chan_ctx = {
  channel : int;
  cc_conn : int;
  cc_serial : int;
  bw : float;
  nodes : int array;
  links : int array;
}

type context = Sim.Monitor.context = {
  link_ctx : link_ctx array;
  chan_ctx : chan_ctx list;
  mux_bw : (int * float) list;
}

type timeline = Sim.Monitor.timeline = {
  tl_conn : int;
  fault_at : float option;
  detect_at : float option;
  report_at : float option;
  activate_at : float option;
  switch_at : float option;
}

module Iset = Set.Make (Int)

(* Lookups derived from a context.  Nothing writes them after
   [lookups_of], so one set of lookups serves every monitor over the same
   (physical) context, on any domain. *)
type lookups = {
  chan_by_id : (int, chan_ctx) Hashtbl.t;
  bw_by_bid : (int, float) Hashtbl.t;
  src_by_conn : (int, int) Hashtbl.t;
}

let no_lookups =
  {
    chan_by_id = Hashtbl.create 1;
    bw_by_bid = Hashtbl.create 1;
    src_by_conn = Hashtbl.create 1;
  }

let build_lookups c =
  let ix =
    {
      chan_by_id = Hashtbl.create 256;
      bw_by_bid = Hashtbl.create 256;
      src_by_conn = Hashtbl.create 64;
    }
  in
  List.iter
    (fun ci ->
      Hashtbl.replace ix.chan_by_id ci.channel ci;
      if ci.cc_serial = 0 && Array.length ci.nodes > 0 then
        Hashtbl.replace ix.src_by_conn ci.cc_conn ci.nodes.(0))
    c.chan_ctx;
  List.iter (fun (bid, bw) -> Hashtbl.replace ix.bw_by_bid bid bw) c.mux_bw;
  ix

let memo : (context, lookups) Memo.t = Memo.create ()

let lookups_of = function
  | None -> no_lookups
  | Some c ->
    Memo.find_or_build memo c ~current:(fun _ -> true) (fun () ->
        build_lookups c)

type t = {
  ctx : context option;
  decode_channel : (int -> int * int) option;
  fail_fast : bool;
  mutable seen : int;
  mutable viols : violation list; (* newest first *)
  cov : (string, unit) Hashtbl.t; (* coverage signal, see [coverage] *)
  mutable rcc_covered : int; (* bit i: [rcc_keys.(i)] is in [cov] *)
  (* shadow state *)
  shadow : (int * int, Event.chan_state) Hashtbl.t; (* (node, ch) -> state *)
  origin_seen : (int, unit) Hashtbl.t; (* channels with a failure origin *)
  failed_conns : (int, unit) Hashtbl.t;
  p_serials : (int * int, Iset.t) Hashtbl.t; (* (node, conn) -> serials in P *)
  timers : (int * int, bool) Hashtbl.t; (* (node, ch) -> running *)
  drawn : float array; (* per-link pool draws; [||] without context *)
  mux_regs : (int, (int, unit) Hashtbl.t) Hashtbl.t; (* link -> bid set *)
  mux_incomplete : (int, unit) Hashtbl.t; (* links with unseen registers *)
  mux_unreg_seen : (int, unit) Hashtbl.t;
  ix : lookups;
  tls : (int, timeline) Hashtbl.t;
  mutable pending_switch : (int * float * int) list; (* conn, time, index *)
  mutable finished : bool;
}

let eps = 1e-9

let create ?context ?decode_channel ?(fail_fast = false) () =
  {
    ctx = context;
    decode_channel;
    fail_fast;
    seen = 0;
    viols = [];
    cov = Hashtbl.create 64;
    rcc_covered = 0;
    shadow = Hashtbl.create 256;
    origin_seen = Hashtbl.create 64;
    failed_conns = Hashtbl.create 64;
    p_serials = Hashtbl.create 64;
    timers = Hashtbl.create 64;
    drawn =
      (match context with
      | None -> [||]
      | Some c -> Array.make (Array.length c.link_ctx) 0.0);
    mux_regs = Hashtbl.create 64;
    mux_incomplete = Hashtbl.create 16;
    mux_unreg_seen = Hashtbl.create 16;
    ix = lookups_of context;
    tls = Hashtbl.create 64;
    pending_switch = [];
    finished = false;
  }

let events_seen t = t.seen
let violations t = List.rev t.viols

let cover t key = Hashtbl.replace t.cov key ()

(* RCC events are the bulk of a heartbeat run's stream; each op's key is
   a constant, entered into [cov] on its first sighting only. *)
let rcc_keys =
  Array.map
    (fun op -> "rcc:" ^ Event.rcc_op_to_string op)
    [| Event.Send; Retransmit; Deliver; Ack; Drop |]

let cover_rcc t (op : Event.rcc_op) =
  let i =
    match op with
    | Send -> 0
    | Retransmit -> 1
    | Deliver -> 2
    | Ack -> 3
    | Drop -> 4
  in
  if t.rcc_covered land (1 lsl i) = 0 then begin
    t.rcc_covered <- t.rcc_covered lor (1 lsl i);
    cover t rcc_keys.(i)
  end

let coverage t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.cov [])

let violate t ~index ~time ?conn ?link ?node ?channel kind ~expected ~actual =
  let v =
    { kind; index; time; conn; link; node; channel; expected; actual }
  in
  cover t ("viol:" ^ kind_to_string kind);
  t.viols <- v :: t.viols;
  if t.fail_fast then raise (Violation v)

(* (conn, serial) of a channel id: context first, then the cid codec. *)
let decode t channel =
  match Hashtbl.find_opt t.ix.chan_by_id channel with
  | Some ci -> Some (ci.cc_conn, ci.cc_serial)
  | None -> (
    match t.decode_channel with
    | Some f -> Some (f channel)
    | None -> None)

(* ---------- timelines ---------- *)

let timeline t conn =
  match Hashtbl.find_opt t.tls conn with
  | Some x -> x
  | None ->
    let x =
      {
        tl_conn = conn;
        fault_at = None;
        detect_at = None;
        report_at = None;
        activate_at = None;
        switch_at = None;
      }
    in
    Hashtbl.replace t.tls conn x;
    x

let update_timeline t conn f = Hashtbl.replace t.tls conn (f (timeline t conn))

let timelines t =
  List.sort
    (fun a b -> Int.compare a.tl_conn b.tl_conn)
    (Hashtbl.fold (fun _ tl acc -> tl :: acc) t.tls [])

(* ---------- channel transitions ---------- *)

let st = Event.chan_state_to_string

(* Legal (from, to, cause) triples of the Section 4 channel automaton as
   the simulator emits them: failures disable (-> U), activations promote
   (B -> P), rejoin repairs (U -> B), preemption demotes (P -> B), and
   soft-state expiry / closure tear down (-> N). *)
let legal_transition from_ to_ cause =
  match (from_, to_, cause) with
  | (Event.P | Event.B), Event.U, ("detect" | "report" | "mux-report" | "preempted" | "mux-fail") ->
    true
  | Event.B, Event.P, "activate" -> true
  | Event.U, Event.N, ("expire" | "closure") -> true
  | Event.U, Event.B, "rejoin" -> true
  | Event.P, Event.B, "preempt" -> true
  | (Event.P | Event.B), Event.N, "closure" -> true
  | _ -> false

(* Causes that originate a failure at this channel (local detection,
   preemption, multiplexing failure) vs. causes propagated from another
   node's origin via failure reports. *)
let origin_cause = function
  | "detect" | "preempted" | "mux-fail" -> true
  | _ -> false

let propagated_cause = function
  | "report" | "mux-report" -> true
  | _ -> false

let adjust_p_set t ~node ~conn ~serial ~joins =
  let key = (node, conn) in
  let set =
    Option.value ~default:Iset.empty (Hashtbl.find_opt t.p_serials key)
  in
  let set = if joins then Iset.add serial set else Iset.remove serial set in
  Hashtbl.replace t.p_serials key set

let position_of ci node =
  let n = Array.length ci.nodes in
  let rec go i = if i >= n then None else if ci.nodes.(i) = node then Some i else go (i + 1) in
  go 0

let draw_pool t ~index ~time ~node ~channel ci ~release =
  match position_of ci node with
  | None -> ()
  | Some pos ->
    if pos < Array.length ci.links then begin
      let l = ci.links.(pos) in
      t.drawn.(l) <- t.drawn.(l) +. (if release then -.ci.bw else ci.bw);
      match t.ctx with
      | Some c when (not release) && t.drawn.(l) > c.link_ctx.(l).spare +. eps ->
        violate t ~index ~time ~conn:ci.cc_conn ~link:l ~node ~channel
          Spare_overdraw
          ~expected:
            (Printf.sprintf "cumulative draws <= spare %.3f Mbps"
               c.link_ctx.(l).spare)
          ~actual:(Printf.sprintf "%.3f Mbps drawn" t.drawn.(l))
      | _ -> ()
    end

let check_transition t ~index ~time ~node ~channel ~from_ ~to_ ~cause =
  cover t (Printf.sprintf "trans:%s>%s:%s" (st from_) (st to_) cause);
  let decoded = decode t channel in
  let conn = Option.map fst decoded in
  (* Shadow continuity: the event's [from_] must match what we believe the
     channel's state at this node is.  First sight adopts the context's
     initial state (P for primaries, B for standbys) when available. *)
  let known =
    match Hashtbl.find_opt t.shadow (node, channel) with
    | Some s -> Some s
    | None -> (
      match decoded with
      | Some (_, 0) -> Some Event.P
      | Some (_, _) -> Some Event.B
      | None -> None)
  in
  (match known with
  | Some s when s <> from_ ->
    violate t ~index ~time ?conn ~node ~channel State_mismatch
      ~expected:(Printf.sprintf "transition out of shadow state %s" (st s))
      ~actual:(Printf.sprintf "%s->%s (%s)" (st from_) (st to_) cause)
  | _ -> ());
  Hashtbl.replace t.shadow (node, channel) to_;
  if not (legal_transition from_ to_ cause) then
    violate t ~index ~time ?conn ~node ~channel Illegal_transition
      ~expected:"a legal N/P/B/U transition for the cause"
      ~actual:(Printf.sprintf "%s->%s (%s)" (st from_) (st to_) cause);
  (* Propagated failure reports need an origin somewhere on the channel. *)
  if to_ = Event.U then begin
    if origin_cause cause then Hashtbl.replace t.origin_seen channel ()
    else if propagated_cause cause && not (Hashtbl.mem t.origin_seen channel)
    then
      violate t ~index ~time ?conn ~node ~channel Phase_order
        ~expected:"a detect/mux-fail/preempt origin before any report"
        ~actual:(Printf.sprintf "first U-transition has cause %S" cause)
  end;
  match decoded with
  | None -> ()
  | Some (conn, serial) ->
    if to_ = Event.U then Hashtbl.replace t.failed_conns conn ();
    if from_ = Event.P then adjust_p_set t ~node ~conn ~serial ~joins:false;
    if to_ = Event.P then adjust_p_set t ~node ~conn ~serial ~joins:true;
    (* Timeline phases from the primary's transitions... *)
    if serial = 0 && to_ = Event.U then begin
      if cause = "detect" then
        update_timeline t conn (fun tl ->
            if tl.detect_at = None then { tl with detect_at = Some time } else tl)
      else if cause = "report" then
        update_timeline t conn (fun tl ->
            if tl.report_at = None then { tl with report_at = Some time } else tl)
    end;
    (* ...and the switch (source resumes on an activated backup). *)
    if serial > 0 && to_ = Event.P && cause = "activate" then begin
      (match Hashtbl.find_opt t.ix.chan_by_id channel with
      | Some ci -> draw_pool t ~index ~time ~node ~channel ci ~release:false
      | None -> ());
      match Hashtbl.find_opt t.ix.src_by_conn conn with
      | Some src when src = node ->
        update_timeline t conn (fun tl ->
            if tl.switch_at = None then { tl with switch_at = Some time } else tl);
        if (timeline t conn).activate_at = None then
          t.pending_switch <- (conn, time, index) :: t.pending_switch
      | Some _ -> ()
      | None ->
        (* No context: track wave completion as a proxy once an
           activation has been observed. *)
        if (timeline t conn).activate_at <> None then
          update_timeline t conn (fun tl -> { tl with switch_at = Some time })
    end;
    if cause = "preempt" then
      match Hashtbl.find_opt t.ix.chan_by_id channel with
      | Some ci -> draw_pool t ~index ~time ~node ~channel ci ~release:true
      | None -> ()

(* ---------- activations ---------- *)

let check_activation t ~index ~time ~node ~conn ~serial ~channel =
  if not (Hashtbl.mem t.failed_conns conn) then
    violate t ~index ~time ~conn ~node ~channel Activation_without_failure
      ~expected:"a reported failure (some channel of the connection in U)"
      ~actual:(Printf.sprintf "activation of serial %d with none" serial);
  (match Hashtbl.find_opt t.p_serials (node, conn) with
  | None -> ()
  | Some set ->
    let others = Iset.remove 0 (Iset.remove serial set) in
    if not (Iset.is_empty others) then
      violate t ~index ~time ~conn ~node ~channel Double_activation
        ~expected:"at most one active backup per D-connection"
        ~actual:
          (Printf.sprintf "serial %d activated while serial %d is in P" serial
             (Iset.min_elt others)));
  update_timeline t conn (fun tl ->
      if tl.activate_at = None then { tl with activate_at = Some time } else tl);
  let rec resolve acc = function
    | [] -> List.rev acc
    | (c, pt, pidx) :: rest when c = conn ->
      if time > pt +. eps then
        violate t ~index:pidx ~time:pt ~conn ~node ~channel Phase_order
          ~expected:"activation committed before the source switches"
          ~actual:
            (Printf.sprintf "switch at t=%.6f precedes activation at t=%.6f" pt
               time);
      List.rev_append acc rest
    | p :: rest -> resolve (p :: acc) rest
  in
  t.pending_switch <- resolve [] t.pending_switch

(* ---------- rejoin timers ---------- *)

let check_timer t ~index ~time ~node ~channel ~op =
  cover t ("timer:" ^ Event.timer_op_to_string op);
  let conn = Option.map fst (decode t channel) in
  let running =
    Option.value ~default:false (Hashtbl.find_opt t.timers (node, channel))
  in
  (match op with
  | Event.Started ->
    if running then
      violate t ~index ~time ?conn ~node ~channel Timer_misfire
        ~expected:"start of an idle rejoin timer" ~actual:"timer already running";
    Hashtbl.replace t.timers (node, channel) true
  | Event.Cancelled ->
    if not running then
      violate t ~index ~time ?conn ~node ~channel Timer_misfire
        ~expected:"cancellation of a running rejoin timer"
        ~actual:"timer not running";
    Hashtbl.replace t.timers (node, channel) false
  | Event.Expired ->
    if not running then
      violate t ~index ~time ?conn ~node ~channel Timer_misfire
        ~expected:"exactly one expiry of a started rejoin timer"
        ~actual:"expiry without a running timer";
    (match Hashtbl.find_opt t.shadow (node, channel) with
    | Some s when s <> Event.U ->
      violate t ~index ~time ?conn ~node ~channel Timer_misfire
        ~expected:"expiry only for soft-state (U) entries"
        ~actual:(Printf.sprintf "channel in state %s" (st s))
    | _ -> ());
    Hashtbl.replace t.timers (node, channel) false)

(* ---------- multiplexing ---------- *)

let mux_set t link =
  match Hashtbl.find_opt t.mux_regs link with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 8 in
    Hashtbl.replace t.mux_regs link s;
    s

let check_mux t ~index ~time ~link ~backup ~op ~pi ~psi =
  cover t ("mux:" ^ Event.mux_op_to_string op);
  let set = mux_set t link in
  let complete = not (Hashtbl.mem t.mux_incomplete link) in
  if pi < 0 || psi < 0 then
    violate t ~index ~time ~link Mux_bound
      ~expected:"non-negative |Pi| and |Psi|"
      ~actual:(Printf.sprintf "pi=%d psi=%d" pi psi);
  match op with
  | Event.Register ->
    if Hashtbl.mem set backup then
      violate t ~index ~time ~link Mux_bound
        ~expected:(Printf.sprintf "backup %d not yet on link" backup)
        ~actual:"duplicate registration";
    Hashtbl.replace set backup ();
    (* |Pi| + |Psi| + 1 partitions the link's registered backups. *)
    if complete && pi + psi + 1 <> Hashtbl.length set then
      violate t ~index ~time ~link Mux_bound
        ~expected:
          (Printf.sprintf "|Pi|+|Psi|+1 = %d registered backups"
             (Hashtbl.length set))
        ~actual:(Printf.sprintf "pi=%d psi=%d" pi psi)
  | Event.Unregister ->
    if not (Hashtbl.mem set backup) then
      (* A register predating the stream: conflict-set accounting on this
         link can no longer be checked. *)
      Hashtbl.replace t.mux_incomplete link ()
    else begin
      if complete && pi + psi + 1 <> Hashtbl.length set then
        violate t ~index ~time ~link Mux_bound
          ~expected:
            (Printf.sprintf "|Pi|+|Psi|+1 = %d registered backups"
               (Hashtbl.length set))
          ~actual:(Printf.sprintf "pi=%d psi=%d" pi psi);
      Hashtbl.remove set backup
    end;
    Hashtbl.replace t.mux_unreg_seen link ()

(* ---------- faults ---------- *)

let note_fault t ~time ~component ~up =
  if not up then
    match t.ctx with
    | None -> ()
    | Some c ->
      List.iter
        (fun ci ->
          if ci.cc_serial = 0 then begin
            let hit =
              match component with
              | Event.Node v -> Array.exists (Int.equal v) ci.nodes
              | Event.Link l -> Array.exists (Int.equal l) ci.links
            in
            if hit then
              update_timeline t ci.cc_conn (fun tl ->
                  if tl.fault_at = None then { tl with fault_at = Some time }
                  else tl)
          end)
        c.chan_ctx

(* ---------- feed ---------- *)

let feed t ~time ev =
  let index = t.seen in
  t.seen <- t.seen + 1;
  match ev with
  | Event.Chan_transition { node; channel; from_; to_; cause } ->
    check_transition t ~index ~time ~node ~channel ~from_ ~to_ ~cause
  | Event.Activation { node; conn; serial; channel } ->
    check_activation t ~index ~time ~node ~conn ~serial ~channel
  | Event.Rejoin_timer { node; channel; op } ->
    check_timer t ~index ~time ~node ~channel ~op
  | Event.Mux { link; backup; op; pi; psi } ->
    check_mux t ~index ~time ~link ~backup ~op ~pi ~psi
  | Event.Fault { component; up } -> note_fault t ~time ~component ~up
  (* Not invariant-checked, but each distinct op / signal / action is a
     behaviour worth steering the swarm toward. *)
  | Event.Rcc { op; _ } -> cover_rcc t op
  | Event.Detector { signal; _ } ->
    cover t ("det:" ^ Event.detector_signal_to_string signal)
  | Event.Lifecycle { op; _ } ->
    cover t ("life:" ^ Event.lifecycle_op_to_string op)

(* One letter per recovery phase a timeline reached: F(ault) D(etect)
   R(eport) A(ctivate) S(witch); "-" for a phase never observed. *)
let outcome_signature tl =
  let mark c = function Some _ -> c | None -> "-" in
  mark "F" tl.fault_at ^ mark "D" tl.detect_at ^ mark "R" tl.report_at
  ^ mark "A" tl.activate_at ^ mark "S" tl.switch_at

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Hashtbl.iter (fun _ tl -> cover t ("outcome:" ^ outcome_signature tl)) t.tls;
    List.iter
      (fun (conn, time, index) ->
        violate t ~index ~time ~conn Phase_order
          ~expected:"an activation commit for every source switch"
          ~actual:"source switched with no activation in the stream")
      (List.rev t.pending_switch);
    t.pending_switch <- [];
    match t.ctx with
    | None -> ()
    | Some c ->
      Array.iteri
        (fun l (lc : link_ctx) ->
          if lc.reserved +. lc.spare > lc.capacity +. eps then
            violate t ~index:t.seen ~time:0.0 ~link:l Capacity_exceeded
              ~expected:
                (Printf.sprintf "reserved + spare <= capacity %.3f" lc.capacity)
              ~actual:
                (Printf.sprintf "%.3f + %.3f Mbps" lc.reserved lc.spare);
          (* The mux bracket: requirement = max bw(B_i ∪ Π(B_i)) lies in
             [max bw, Σ bw] over the registered set.  Only checkable when
             the stream covered every registration and reconfiguration
             has not reclaimed spare yet. *)
          match Hashtbl.find_opt t.mux_regs l with
          | Some set
            when Hashtbl.length set > 0
                 && (not (Hashtbl.mem t.mux_incomplete l))
                 && not (Hashtbl.mem t.mux_unreg_seen l) ->
            let known = ref true and sum = ref 0.0 and max_bw = ref 0.0 in
            Hashtbl.iter
              (fun bid () ->
                match Hashtbl.find_opt t.ix.bw_by_bid bid with
                | None -> known := false
                | Some bw ->
                  sum := !sum +. bw;
                  if bw > !max_bw then max_bw := bw)
              set;
            if !known then begin
              if lc.spare > !sum +. eps then
                violate t ~index:t.seen ~time:0.0 ~link:l Mux_bound
                  ~expected:
                    (Printf.sprintf "spare <= sum of backup bw %.3f" !sum)
                  ~actual:(Printf.sprintf "spare %.3f Mbps" lc.spare);
              if lc.spare +. eps < !max_bw then
                violate t ~index:t.seen ~time:0.0 ~link:l Mux_bound
                  ~expected:
                    (Printf.sprintf "spare >= largest backup bw %.3f" !max_bw)
                  ~actual:(Printf.sprintf "spare %.3f Mbps" lc.spare)
            end
          | _ -> ())
        c.link_ctx
  end
