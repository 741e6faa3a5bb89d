type kind =
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

type violation = {
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

exception Violation of violation

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

type link_ctx = { capacity : float; reserved : float; spare : float }

type chan_ctx = {
  channel : int;
  cc_conn : int;
  cc_serial : int;
  bw : float;
  nodes : int array;
  links : int array;
}

type context = {
  link_ctx : link_ctx array;
  chan_ctx : chan_ctx list;
  mux_bw : (int * float) list;
}

type timeline = {
  tl_conn : int;
  fault_at : float option;
  detect_at : float option;
  report_at : float option;
  activate_at : float option;
  switch_at : float option;
}

module Iset = Set.Make (Int)

(* Int keys with a cheap multiplicative hash.  Channel ids carry the
   backup serial in their low bits, so the high bits are folded down
   before [Hashtbl] masks the hash to a power-of-two table. *)
let mix x =
  let h = x * 0x9e3779b97f4a7c1 in
  (h lxor (h lsr 29)) land max_int

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = mix
end)

(* Backup-id sets.  [finish] sums bandwidths in iteration order, so these
   keep the polymorphic [Hashtbl]'s hash, and with it its order. *)
module Bidtbl = Hashtbl.Make (Int)

(* Table keyed by a pair of ints, with no tuple built per lookup.  The
   outer key (a channel or connection id) finds a cell in an [Itbl]; the
   cell holds the inner keys (nodes) seen with it in a small array,
   scanned linearly: a channel or connection meets a handful of path
   nodes.  Entries are never removed. *)
module Pairs = struct
  type 'a cell = { mutable keys : int array; mutable vals : 'a array; mutable n : int }
  type 'a t = { cells : 'a cell Itbl.t; absent : 'a }

  let create absent = { cells = Itbl.create 64; absent }

  let rec index keys n k i =
    if i = n then -1 else if keys.(i) = k then i else index keys n k (i + 1)

  let find t ~outer ~inner =
    match Itbl.find t.cells outer with
    | exception Not_found -> t.absent
    | c ->
      let i = index c.keys c.n inner 0 in
      if i < 0 then t.absent else c.vals.(i)

  let replace t ~outer ~inner v =
    match Itbl.find t.cells outer with
    | exception Not_found ->
      Itbl.replace t.cells outer
        { keys = Array.make 4 inner; vals = Array.make 4 v; n = 1 }
    | c ->
      let i = index c.keys c.n inner 0 in
      if i >= 0 then c.vals.(i) <- v
      else begin
        if c.n = Array.length c.keys then begin
          let grow a = Array.append a a in
          c.keys <- grow c.keys;
          c.vals <- grow c.vals
        end;
        c.keys.(c.n) <- inner;
        c.vals.(c.n) <- v;
        c.n <- c.n + 1
      end
end

(* Lookups derived from a context.  Nothing writes them after
   [lookups_of], so one set of lookups serves every monitor over the same
   (physical) context, on any domain. *)
type lookups = {
  chan_by_id : chan_ctx Itbl.t;
  bw_by_bid : float Itbl.t;
  src_by_conn : int Itbl.t;
  prim_by_node : int list Itbl.t; (* node -> conns whose primary visits it *)
  prim_by_link : int list Itbl.t; (* link -> conns whose primary uses it *)
}

let no_lookups =
  {
    chan_by_id = Itbl.create 1;
    bw_by_bid = Itbl.create 1;
    src_by_conn = Itbl.create 1;
    prim_by_node = Itbl.create 1;
    prim_by_link = Itbl.create 1;
  }

let build_lookups c =
  let ix =
    {
      chan_by_id = Itbl.create 256;
      bw_by_bid = Itbl.create 256;
      src_by_conn = Itbl.create 64;
      prim_by_node = Itbl.create 64;
      prim_by_link = Itbl.create 256;
    }
  in
  let add tbl k conn =
    Itbl.replace tbl k
      (conn :: Option.value ~default:[] (Itbl.find_opt tbl k))
  in
  List.iter
    (fun ci ->
      Itbl.replace ix.chan_by_id ci.channel ci;
      if ci.cc_serial = 0 then begin
        if Array.length ci.nodes > 0 then
          Itbl.replace ix.src_by_conn ci.cc_conn ci.nodes.(0);
        Array.iter (fun v -> add ix.prim_by_node v ci.cc_conn) ci.nodes;
        Array.iter (fun l -> add ix.prim_by_link l ci.cc_conn) ci.links
      end)
    c.chan_ctx;
  List.iter (fun (bid, bw) -> Itbl.replace ix.bw_by_bid bid bw) c.mux_bw;
  ix

let memo : (context, lookups) Memo.t = Memo.create ()

let lookups_of = function
  | None -> no_lookups
  | Some c ->
    Memo.find_or_build memo c ~current:(fun _ -> true) (fun () ->
        build_lookups c)

(* ---------- coverage keys ---------- *)

(* Every fixed coverage key has a flag bit; its string enters [cov] on
   the flag's first sighting only. *)
let rcc_flag : Event.rcc_op -> int = function
  | Send -> 0
  | Retransmit -> 1
  | Deliver -> 2
  | Ack -> 3
  | Drop -> 4

let det_flag : Event.detector_signal -> int = function
  | Suspect -> 5
  | Confirm -> 6
  | Clear -> 7

let timer_flag : Event.timer_op -> int = function
  | Started -> 8
  | Cancelled -> 9
  | Expired -> 10

let mux_flag : Event.mux_op -> int = function
  | Register -> 11
  | Unregister -> 12

let life_flag : Event.lifecycle_op -> int = function
  | Arrive -> 13
  | Admit -> 14
  | Block -> 15
  | Depart -> 16
  | Readmit -> 17

let viol_flag = function
  | Illegal_transition -> 18
  | State_mismatch -> 19
  | Spare_overdraw -> 20
  | Mux_bound -> 21
  | Capacity_exceeded -> 22
  | Double_activation -> 23
  | Activation_without_failure -> 24
  | Phase_order -> 25
  | Timer_misfire -> 26

let flag_keys =
  let keys = Array.make 27 "" in
  let set flag prefix name = keys.(flag) <- prefix ^ name in
  List.iter
    (fun op -> set (rcc_flag op) "rcc:" (Event.rcc_op_to_string op))
    [ Event.Send; Retransmit; Deliver; Ack; Drop ];
  List.iter
    (fun s -> set (det_flag s) "det:" (Event.detector_signal_to_string s))
    [ Event.Suspect; Confirm; Clear ];
  List.iter
    (fun op -> set (timer_flag op) "timer:" (Event.timer_op_to_string op))
    [ Event.Started; Cancelled; Expired ];
  List.iter
    (fun op -> set (mux_flag op) "mux:" (Event.mux_op_to_string op))
    [ Event.Register; Unregister ];
  List.iter
    (fun op -> set (life_flag op) "life:" (Event.lifecycle_op_to_string op))
    [ Event.Arrive; Admit; Block; Depart; Readmit ];
  List.iter
    (fun k -> set (viol_flag k) "viol:" (kind_to_string k))
    [
      Illegal_transition;
      State_mismatch;
      Spare_overdraw;
      Mux_bound;
      Capacity_exceeded;
      Double_activation;
      Activation_without_failure;
      Phase_order;
      Timer_misfire;
    ];
  keys

let state_code : Event.chan_state -> int = function
  | N -> 0
  | P -> 1
  | B -> 2
  | U -> 3

let states = [| Event.N; P; B; U |]

type t = {
  ctx : context option;
  decode_channel : (int -> int * int) option;
  fail_fast : bool;
  mutable seen : int;
  mutable viols : violation list; (* newest first *)
  cov : (string, unit) Hashtbl.t; (* coverage signal, see [coverage] *)
  mutable flags : int; (* bit i: [flag_keys.(i)] is in [cov] *)
  trans_causes : string list array;
      (* [4 * from + to] -> causes whose "trans:" key is in [cov] *)
  (* shadow state *)
  shadow : int Pairs.t; (* ch, node -> state code, -1 if unseen *)
  origin_seen : unit Itbl.t; (* channels with a failure origin *)
  failed_conns : unit Itbl.t;
  p_serials : Iset.t Pairs.t; (* conn, node -> serials in P *)
  timers : bool Pairs.t; (* ch, node -> running *)
  drawn : float array; (* per-link pool draws; [||] without context *)
  mux_regs : unit Bidtbl.t Itbl.t; (* link -> bid set *)
  mux_incomplete : unit Itbl.t; (* links with unseen registers *)
  mux_unreg_seen : unit Itbl.t;
  ix : lookups;
  tls : timeline Itbl.t;
  mutable pending_switch : (int * float * int) list; (* conn, time, index *)
  mutable finished : bool;
  (* [decode]'s answer, kept here so that decoding allocates nothing *)
  mutable known : bool;
  mutable d_conn : int;
  mutable d_serial : int;
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
    flags = 0;
    trans_causes = Array.make 16 [];
    shadow = Pairs.create (-1);
    origin_seen = Itbl.create 64;
    failed_conns = Itbl.create 64;
    p_serials = Pairs.create Iset.empty;
    timers = Pairs.create false;
    drawn =
      (match context with
      | None -> [||]
      | Some c -> Array.make (Array.length c.link_ctx) 0.0);
    mux_regs = Itbl.create 64;
    mux_incomplete = Itbl.create 16;
    mux_unreg_seen = Itbl.create 16;
    ix = lookups_of context;
    tls = Itbl.create 64;
    pending_switch = [];
    finished = false;
    known = false;
    d_conn = 0;
    d_serial = 0;
  }

let events_seen t = t.seen
let violations t = List.rev t.viols

let cover t key = Hashtbl.replace t.cov key ()

let cover_flag t flag =
  if t.flags land (1 lsl flag) = 0 then begin
    t.flags <- t.flags lor (1 lsl flag);
    cover t flag_keys.(flag)
  end

let coverage t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.cov [])

let violate t ~index ~time ?conn ?link ?node ?channel kind ~expected ~actual =
  let v =
    { kind; index; time; conn; link; node; channel; expected; actual }
  in
  cover_flag t (viol_flag kind);
  t.viols <- v :: t.viols;
  if t.fail_fast then raise (Violation v)

(* (conn, serial) of a channel id: context first, then the cid codec.
   Sets [known], and [d_conn]/[d_serial] when known. *)
let decode t channel =
  match Itbl.find_opt t.ix.chan_by_id channel with
  | Some ci ->
    t.known <- true;
    t.d_conn <- ci.cc_conn;
    t.d_serial <- ci.cc_serial
  | None -> (
    match t.decode_channel with
    | Some f ->
      let conn, serial = f channel in
      t.known <- true;
      t.d_conn <- conn;
      t.d_serial <- serial
    | None -> t.known <- false)

let decoded_conn t = if t.known then Some t.d_conn else None

(* ---------- timelines ---------- *)

let timeline t conn =
  match Itbl.find_opt t.tls conn with
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
    Itbl.replace t.tls conn x;
    x

let update_timeline t conn f = Itbl.replace t.tls conn (f (timeline t conn))

let timelines t =
  List.sort
    (fun a b -> Int.compare a.tl_conn b.tl_conn)
    (Itbl.fold (fun _ tl acc -> tl :: acc) t.tls [])

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

let cover_transition t from_ to_ cause =
  let k = (4 * state_code from_) + state_code to_ in
  let causes = t.trans_causes.(k) in
  if not (List.exists (String.equal cause) causes) then begin
    t.trans_causes.(k) <- cause :: causes;
    cover t (Printf.sprintf "trans:%s>%s:%s" (st from_) (st to_) cause)
  end

let adjust_p_set t ~node ~conn ~serial ~joins =
  let set = Pairs.find t.p_serials ~outer:conn ~inner:node in
  let set = if joins then Iset.add serial set else Iset.remove serial set in
  Pairs.replace t.p_serials ~outer:conn ~inner:node set

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
  cover_transition t from_ to_ cause;
  decode t channel;
  (* Shadow continuity: the event's [from_] must match what we believe the
     channel's state at this node is.  First sight adopts the context's
     initial state (P for primaries, B for standbys) when available. *)
  let known =
    match Pairs.find t.shadow ~outer:channel ~inner:node with
    | -1 ->
      if not t.known then -1
      else if t.d_serial = 0 then state_code Event.P
      else state_code Event.B
    | s -> s
  in
  if known >= 0 && known <> state_code from_ then
    violate t ~index ~time ?conn:(decoded_conn t) ~node ~channel State_mismatch
      ~expected:
        (Printf.sprintf "transition out of shadow state %s" (st states.(known)))
      ~actual:(Printf.sprintf "%s->%s (%s)" (st from_) (st to_) cause);
  Pairs.replace t.shadow ~outer:channel ~inner:node (state_code to_);
  if not (legal_transition from_ to_ cause) then
    violate t ~index ~time ?conn:(decoded_conn t) ~node ~channel
      Illegal_transition ~expected:"a legal N/P/B/U transition for the cause"
      ~actual:(Printf.sprintf "%s->%s (%s)" (st from_) (st to_) cause);
  (* Propagated failure reports need an origin somewhere on the channel. *)
  if to_ = Event.U then begin
    if origin_cause cause then Itbl.replace t.origin_seen channel ()
    else if propagated_cause cause && not (Itbl.mem t.origin_seen channel)
    then
      violate t ~index ~time ?conn:(decoded_conn t) ~node ~channel Phase_order
        ~expected:"a detect/mux-fail/preempt origin before any report"
        ~actual:(Printf.sprintf "first U-transition has cause %S" cause)
  end;
  if t.known then begin
    let conn = t.d_conn and serial = t.d_serial in
    if to_ = Event.U then Itbl.replace t.failed_conns conn ();
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
      (match Itbl.find_opt t.ix.chan_by_id channel with
      | Some ci -> draw_pool t ~index ~time ~node ~channel ci ~release:false
      | None -> ());
      match Itbl.find_opt t.ix.src_by_conn conn with
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
      match Itbl.find_opt t.ix.chan_by_id channel with
      | Some ci -> draw_pool t ~index ~time ~node ~channel ci ~release:true
      | None -> ()
  end

(* ---------- activations ---------- *)

let check_activation t ~index ~time ~node ~conn ~serial ~channel =
  if not (Itbl.mem t.failed_conns conn) then
    violate t ~index ~time ~conn ~node ~channel Activation_without_failure
      ~expected:"a reported failure (some channel of the connection in U)"
      ~actual:(Printf.sprintf "activation of serial %d with none" serial);
  (let others =
     Iset.remove 0 (Iset.remove serial (Pairs.find t.p_serials ~outer:conn ~inner:node))
   in
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
  if t.pending_switch <> [] then t.pending_switch <- resolve [] t.pending_switch

(* ---------- rejoin timers ---------- *)

let check_timer t ~index ~time ~node ~channel ~op =
  cover_flag t (timer_flag op);
  let running = Pairs.find t.timers ~outer:channel ~inner:node in
  let misfire ~expected ~actual =
    decode t channel;
    violate t ~index ~time ?conn:(decoded_conn t) ~node ~channel Timer_misfire
      ~expected ~actual
  in
  match op with
  | Event.Started ->
    if running then
      misfire ~expected:"start of an idle rejoin timer"
        ~actual:"timer already running";
    Pairs.replace t.timers ~outer:channel ~inner:node true
  | Event.Cancelled ->
    if not running then
      misfire ~expected:"cancellation of a running rejoin timer"
        ~actual:"timer not running";
    Pairs.replace t.timers ~outer:channel ~inner:node false
  | Event.Expired ->
    if not running then
      misfire ~expected:"exactly one expiry of a started rejoin timer"
        ~actual:"expiry without a running timer";
    (match Pairs.find t.shadow ~outer:channel ~inner:node with
    | -1 -> ()
    | s when s <> state_code Event.U ->
      misfire ~expected:"expiry only for soft-state (U) entries"
        ~actual:(Printf.sprintf "channel in state %s" (st states.(s)))
    | _ -> ());
    Pairs.replace t.timers ~outer:channel ~inner:node false

(* ---------- multiplexing ---------- *)

let mux_set t link =
  match Itbl.find_opt t.mux_regs link with
  | Some s -> s
  | None ->
    let s = Bidtbl.create 8 in
    Itbl.replace t.mux_regs link s;
    s

let check_mux t ~index ~time ~link ~backup ~op ~pi ~psi =
  cover_flag t (mux_flag op);
  let set = mux_set t link in
  let complete = not (Itbl.mem t.mux_incomplete link) in
  if pi < 0 || psi < 0 then
    violate t ~index ~time ~link Mux_bound
      ~expected:"non-negative |Pi| and |Psi|"
      ~actual:(Printf.sprintf "pi=%d psi=%d" pi psi);
  match op with
  | Event.Register ->
    if Bidtbl.mem set backup then
      violate t ~index ~time ~link Mux_bound
        ~expected:(Printf.sprintf "backup %d not yet on link" backup)
        ~actual:"duplicate registration";
    Bidtbl.replace set backup ();
    (* |Pi| + |Psi| + 1 partitions the link's registered backups. *)
    if complete && pi + psi + 1 <> Bidtbl.length set then
      violate t ~index ~time ~link Mux_bound
        ~expected:
          (Printf.sprintf "|Pi|+|Psi|+1 = %d registered backups"
             (Bidtbl.length set))
        ~actual:(Printf.sprintf "pi=%d psi=%d" pi psi)
  | Event.Unregister ->
    if not (Bidtbl.mem set backup) then
      (* A register predating the stream: conflict-set accounting on this
         link can no longer be checked. *)
      Itbl.replace t.mux_incomplete link ()
    else begin
      if complete && pi + psi + 1 <> Bidtbl.length set then
        violate t ~index ~time ~link Mux_bound
          ~expected:
            (Printf.sprintf "|Pi|+|Psi|+1 = %d registered backups"
               (Bidtbl.length set))
          ~actual:(Printf.sprintf "pi=%d psi=%d" pi psi);
      Bidtbl.remove set backup
    end;
    Itbl.replace t.mux_unreg_seen link ()

(* ---------- faults ---------- *)

(* Every connection whose primary the failed component lies on; the
   context's component index lists them, so no channel is walked. *)
let note_fault t ~time ~component ~up =
  if not up then
    let hit =
      match component with
      | Event.Node v -> Itbl.find_opt t.ix.prim_by_node v
      | Event.Link l -> Itbl.find_opt t.ix.prim_by_link l
    in
    match hit with
    | None -> ()
    | Some conns ->
      List.iter
        (fun conn ->
          update_timeline t conn (fun tl ->
              if tl.fault_at = None then { tl with fault_at = Some time }
              else tl))
        conns

(* ---------- driver ---------- *)

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
  | Event.Rcc { op; _ } -> cover_flag t (rcc_flag op)
  | Event.Detector { signal; _ } -> cover_flag t (det_flag signal)
  | Event.Lifecycle { op; _ } -> cover_flag t (life_flag op)

let feed_rcc t op =
  t.seen <- t.seen + 1;
  cover_flag t (rcc_flag op)

(* One letter per recovery phase a timeline reached: F(ault) D(etect)
   R(eport) A(ctivate) S(witch); "-" for a phase never observed. *)
let outcome_signature tl =
  let mark c = function Some _ -> c | None -> "-" in
  mark "F" tl.fault_at ^ mark "D" tl.detect_at ^ mark "R" tl.report_at
  ^ mark "A" tl.activate_at ^ mark "S" tl.switch_at

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Itbl.iter (fun _ tl -> cover t ("outcome:" ^ outcome_signature tl)) t.tls;
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
          match Itbl.find_opt t.mux_regs l with
          | Some set
            when Bidtbl.length set > 0
                 && (not (Itbl.mem t.mux_incomplete l))
                 && not (Itbl.mem t.mux_unreg_seen l) ->
            let known = ref true and sum = ref 0.0 and max_bw = ref 0.0 in
            Bidtbl.iter
              (fun bid () ->
                match Itbl.find_opt t.ix.bw_by_bid bid with
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
