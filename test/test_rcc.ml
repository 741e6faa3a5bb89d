(* Tests for the real-time control channel: message model, hop-by-hop
   transport (aggregation, pacing, ack/retransmission, dedup) and the
   Section 5 delay bounds. *)

let check_float eps = Alcotest.(check (float eps))

let report ch =
  Rcc.Control.Failure_report { channel = ch; component = Net.Component.Link 0 }

(* ---------- Control ---------- *)

let test_control_accessors () =
  Alcotest.(check int) "channel of report" 7 (Rcc.Control.channel_of (report 7));
  let act = Rcc.Control.Activation { conn = 1; serial = 2; channel = 66 } in
  Alcotest.(check int) "channel of activation" 66 (Rcc.Control.channel_of act);
  Alcotest.(check bool) "positive size" true (Rcc.Control.size_bytes act > 0);
  Alcotest.(check bool) "equal" true (act = act);
  Alcotest.(check bool) "not equal" false (act = report 7)

(* ---------- Transport ---------- *)

let make_transport ?(params = Rcc.Transport.default_params) () =
  let engine = Sim.Engine.create () in
  let received = ref [] in
  let tr =
    Rcc.Transport.create engine ~params ~link:0 ~deliver:(fun c ->
        received := c :: !received)
  in
  (engine, tr, received)

let test_transport_delivers () =
  let engine, tr, received = make_transport () in
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "one delivery" 1 (List.length !received);
  Alcotest.(check bool) "payload intact" true
    (List.hd !received = report 1);
  Alcotest.(check int) "no retransmissions" 1 (Rcc.Transport.stats_sent tr);
  Alcotest.(check int) "acked" 0 (Rcc.Transport.in_flight tr)

let test_transport_delivery_within_d_max () =
  let engine, tr, received = make_transport () in
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run
    ~until:Rcc.Transport.default_params.Rcc.Transport.d_max engine;
  Alcotest.(check int) "delivered within D_max" 1 (List.length !received)

let test_transport_aggregation () =
  (* With s_max fitting exactly two control messages, three sends form two
     RCC messages. *)
  let params = { Rcc.Transport.default_params with Rcc.Transport.s_max = 32 } in
  let engine, tr, received = make_transport ~params () in
  Rcc.Transport.send tr (report 1);
  Rcc.Transport.send tr (report 2);
  Rcc.Transport.send tr (report 3);
  Sim.Engine.run engine;
  Alcotest.(check int) "all delivered" 3 (List.length !received);
  Alcotest.(check int) "two RCC messages" 2 (Rcc.Transport.stats_sent tr)

let test_transport_rate_pacing () =
  (* r_max = 100/s with 1-message RCC frames: the 3rd message cannot leave
     before t = 2/100. *)
  let params =
    { Rcc.Transport.default_params with Rcc.Transport.s_max = 16; r_max = 100.0 }
  in
  let engine, tr, received = make_transport ~params () in
  Rcc.Transport.send tr (report 1);
  Rcc.Transport.send tr (report 2);
  Rcc.Transport.send tr (report 3);
  Sim.Engine.run ~until:0.015 engine;
  Alcotest.(check int) "only two by t=15ms" 2 (List.length !received);
  Sim.Engine.run engine;
  Alcotest.(check int) "all eventually" 3 (List.length !received)

let test_transport_dedup_queued () =
  let engine, tr, received = make_transport () in
  Rcc.Transport.send tr (report 1);
  Rcc.Transport.send tr (report 1);
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "queued duplicates collapsed" 1 (List.length !received)

let test_transport_loss_and_retransmission () =
  let engine, tr, received = make_transport () in
  (* Dead at send time; repair shortly after: the retransmission succeeds. *)
  Rcc.Transport.set_alive tr false;
  Rcc.Transport.send tr (report 1);
  ignore
    (Sim.Engine.schedule engine ~at:0.006 (fun () -> Rcc.Transport.set_alive tr true));
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered after repair" 1 (List.length !received);
  Alcotest.(check bool) "took retransmissions" true (Rcc.Transport.stats_sent tr > 1);
  Alcotest.(check int) "nothing abandoned" 0 (Rcc.Transport.stats_dropped tr)

let test_transport_gives_up () =
  let params =
    { Rcc.Transport.default_params with Rcc.Transport.max_retransmits = 3 }
  in
  let engine, tr, received = make_transport ~params () in
  Rcc.Transport.set_alive tr false;
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run engine;
  Alcotest.(check int) "never delivered" 0 (List.length !received);
  Alcotest.(check int) "three attempts" 3 (Rcc.Transport.stats_sent tr);
  Alcotest.(check int) "dropped" 1 (Rcc.Transport.stats_dropped tr);
  Alcotest.(check int) "no longer in flight" 0 (Rcc.Transport.in_flight tr)

let test_transport_no_duplicate_delivery_on_lost_ack () =
  (* Deliver, then kill the link before the ack returns: the retransmitted
     copy must be suppressed by the receiver's sequence-number dedup. *)
  let engine, tr, received = make_transport () in
  Rcc.Transport.send tr (report 1);
  let d = Rcc.Transport.default_params.Rcc.Transport.d_max in
  (* A near-empty RCC message is delivered at 0.25·d_max and acked a
     quarter-d_max after that; kill the link in between so the ack is
     lost, and revive it so a retransmission gets through. *)
  ignore
    (Sim.Engine.schedule engine ~at:(0.4 *. d) (fun () ->
         Rcc.Transport.set_alive tr false));
  ignore
    (Sim.Engine.schedule engine ~at:(10.0 *. d) (fun () ->
         Rcc.Transport.set_alive tr true));
  Sim.Engine.run engine;
  Alcotest.(check int) "exactly one delivery" 1 (List.length !received);
  Alcotest.(check bool) "retransmitted" true (Rcc.Transport.stats_sent tr >= 2)

(* Every RCC lifecycle step the transport reports, with its time. *)
let record_ops engine tr =
  let log = ref [] in
  Rcc.Transport.set_sink tr (fun ~link:_ ~op ~seq ~bytes:_ ->
      log := (Sim.Event.rcc_op_to_string op, seq, Sim.Engine.now engine) :: !log);
  log

let op_log = Alcotest.(list (triple string int (float 0.0)))

let test_transport_ack_cancels_timer () =
  let engine, tr, received = make_transport () in
  Rcc.Transport.send tr (report 1);
  Rcc.Transport.send tr (Rcc.Control.Heartbeat { node = 0; beat = 1 });
  (* Both travel in one RCC message, acked well before the 4 ms timer. *)
  Sim.Engine.run ~until:0.002 engine;
  Alcotest.(check int) "delivered" 2 (List.length !received);
  Alcotest.(check int) "acked" 0 (Rcc.Transport.in_flight tr);
  Alcotest.(check int) "no timer left behind" 0 (Sim.Engine.pending engine)

(* On a dead link the sender makes [max_retransmits] attempts, one every
   [retransmit_timeout], drops the message one timeout after the last,
   and leaves no event behind. *)
let test_transport_dead_link_schedule () =
  let engine, tr, _ = make_transport () in
  let log = record_ops engine tr in
  Rcc.Transport.set_alive tr false;
  Rcc.Transport.send tr (report 1);
  Sim.Engine.run engine;
  let rto = Rcc.Transport.default_params.Rcc.Transport.retransmit_timeout in
  let expected =
    let rec go k at acc =
      if k = 8 then List.rev (("drop", 0, at) :: acc)
      else
        let op = if k = 0 then "send" else "retransmit" in
        go (k + 1) (at +. rto) ((op, 0, at) :: acc)
    in
    go 0 0.0 []
  in
  Alcotest.check op_log "send, 7 retransmits, drop" expected (List.rev !log);
  Alcotest.(check (float 0.0)) "drop at 32 ms" 0x1.0624dd2f1a9fcp-5
    (Sim.Engine.now engine);
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending engine)

(* A heartbeat sent by an event with nothing else due at [now] is pumped
   inline; one sent while another event is due at [now] waits for a
   queued pump that runs after that event.  [extra] is that event. *)
let beat_at ~extra =
  let engine, tr, received = make_transport () in
  let log = record_ops engine tr in
  let pending_after_send = ref (-1) in
  ignore
    (Sim.Engine.schedule engine ~at:0.003 (fun () ->
         if extra then
           ignore
             (Sim.Engine.schedule engine ~at:0.003 (fun () ->
                  log := ("extra", -1, Sim.Engine.now engine) :: !log));
         Rcc.Transport.send tr (Rcc.Control.Heartbeat { node = 0; beat = 1 });
         pending_after_send := Sim.Engine.pending engine));
  Sim.Engine.run engine;
  Alcotest.(check int) "delivered" 1 (List.length !received);
  (List.rev !log, !pending_after_send)

let test_transport_inline_matches_queued () =
  let inline, pending_inline = beat_at ~extra:false in
  (* The same heartbeat through a queued pump: an idle event due at the
     same instant makes the transport queue the pump behind it. *)
  let engine, tr, _ = make_transport () in
  let log = record_ops engine tr in
  ignore
    (Sim.Engine.schedule engine ~at:0.003 (fun () ->
         Rcc.Transport.send tr (Rcc.Control.Heartbeat { node = 0; beat = 1 })));
  ignore (Sim.Engine.schedule engine ~at:0.003 (fun () -> ()));
  Sim.Engine.run engine;
  let queued = List.rev !log in
  Alcotest.(check int) "inline: delivery + ack timer pending" 2 pending_inline;
  Alcotest.check op_log "same send, deliver and ack" queued inline;
  Alcotest.check op_log "send at 3 ms, seq 0"
    [ ("send", 0, 0.003) ]
    (List.filter (fun (op, _, _) -> op = "send") inline)

let test_transport_inline_falls_back () =
  let log, pending = beat_at ~extra:true in
  Alcotest.(check int) "pump queued behind the due event" 2 pending;
  match log with
  | ("extra", _, t0) :: ("send", 0, t1) :: _ ->
    Alcotest.(check (float 0.0)) "same instant" t0 t1
  | _ -> Alcotest.fail "the event due at now must run before the send"

let test_transport_validation () =
  let engine = Sim.Engine.create () in
  let bad params =
    try
      ignore (Rcc.Transport.create engine ~params ~link:0 ~deliver:(fun _ -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "s_max" true
    (bad { Rcc.Transport.default_params with Rcc.Transport.s_max = 0 });
  Alcotest.(check bool) "r_max" true
    (bad { Rcc.Transport.default_params with Rcc.Transport.r_max = 0.0 });
  Alcotest.(check bool) "d_max" true
    (bad { Rcc.Transport.default_params with Rcc.Transport.d_max = 0.0 })

(* ---------- Bounds ---------- *)

let test_s_max_requirement () =
  Alcotest.(check int) "x*y" 2048
    (Rcc.Bounds.s_max_requirement ~control_message_size:16
       ~max_channels_on_link_pair:128)

let test_recovery_delay_bound () =
  let d = 1e-3 in
  check_float 1e-12 "single backup = reporting only" (7.0 *. d)
    (Rcc.Bounds.recovery_delay_bound ~k:8 ~backups:1 ~d_max:d);
  check_float 1e-12 "two backups add one round trip"
    ((7.0 *. d) +. (2.0 *. 7.0 *. d))
    (Rcc.Bounds.recovery_delay_bound ~k:8 ~backups:2 ~d_max:d);
  check_float 1e-12 "adjacent nodes recover instantly" 0.0
    (Rcc.Bounds.recovery_delay_bound ~k:1 ~backups:1 ~d_max:d)

let test_bounds_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "k=0" true
    (raises (fun () ->
         ignore (Rcc.Bounds.recovery_delay_bound ~k:0 ~backups:1 ~d_max:1.0)));
  Alcotest.(check bool) "b=0" true
    (raises (fun () ->
         ignore (Rcc.Bounds.recovery_delay_bound ~k:2 ~backups:0 ~d_max:1.0)))

(* ---------- property ---------- *)

let prop_every_sent_message_delivered_once =
  QCheck.Test.make
    ~name:"on a healthy link, every distinct control message arrives exactly once"
    ~count:50
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 1000))
    (fun channels ->
      let distinct = List.sort_uniq Int.compare channels in
      let engine = Sim.Engine.create () in
      let seen = Hashtbl.create 16 in
      let tr =
        Rcc.Transport.create engine ~params:Rcc.Transport.default_params ~link:0
          ~deliver:(fun c ->
            let ch = Rcc.Control.channel_of c in
            Hashtbl.replace seen ch (1 + Option.value ~default:0 (Hashtbl.find_opt seen ch)))
      in
      List.iter (fun ch -> Rcc.Transport.send tr (report ch)) channels;
      Sim.Engine.run engine;
      List.for_all (fun ch -> Hashtbl.find_opt seen ch = Some 1) distinct
      && Hashtbl.length seen = List.length distinct)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* Forty RCC messages outstanding at once — more than the sender's
   initial per-seq window holds — across an outage, then duplicated and
   reordered on the way: each is delivered once, acked, and leaves no
   timer behind. *)
let test_transport_many_in_flight () =
  let engine, tr, received = make_transport () in
  let n = 40 and gap = 2e-4 in
  Rcc.Transport.set_alive tr false;
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.schedule engine ~at:(float_of_int i *. gap) (fun () ->
           Rcc.Transport.send tr (report i)))
  done;
  let peak = ref 0 in
  ignore
    (Sim.Engine.schedule engine ~at:(float_of_int n *. gap) (fun () ->
         peak := Rcc.Transport.in_flight tr;
         (* Revived: every copy now lands twice, the later ones first. *)
         let k = ref 0 in
         Rcc.Transport.set_impairment tr
           (Some
              (fun ~dir:_ ~bytes:_ ~now:_ ->
                incr k;
                [ 1e-3 /. float_of_int !k; 2e-4 ]));
         Rcc.Transport.set_alive tr true));
  Sim.Engine.run engine;
  Alcotest.(check int) "all outstanding before revival" n !peak;
  Alcotest.(check int) "each delivered once" n (List.length !received);
  Alcotest.(check int) "all acked" 0 (Rcc.Transport.in_flight tr);
  Alcotest.(check int) "none dropped" 0 (Rcc.Transport.stats_dropped tr);
  Alcotest.(check int) "no timer left behind" 0 (Sim.Engine.pending engine)

(* Sends [report i] at [i * gap] for [i < n], each its own RCC message,
   with the [i]-th data copy offered to the link landing [extra i] late
   (a list: one entry per copy); acks land on time. *)
let send_spaced ?params ~n ~gap ~extra () =
  let engine, tr, received = make_transport ?params () in
  let k = ref 0 in
  Rcc.Transport.set_impairment tr
    (Some
       (fun ~dir ~bytes:_ ~now:_ ->
         match dir with
         | `Ack -> [ 0.0 ]
         | `Data ->
           incr k;
           extra (!k - 1)));
  for i = 0 to n - 1 do
    ignore
      (Sim.Engine.schedule engine ~at:(float_of_int i *. gap) (fun () ->
           Rcc.Transport.send tr (report i)))
  done;
  (engine, tr, received)

let channels received =
  List.rev_map (fun c -> Rcc.Control.channel_of c) !received

(* A repair prunes only dedup entries that can never match again: twelve
   messages land and are acked at once, each with a late duplicate still
   airborne when the link dies and comes back.  Twelve exceeds the
   sender's initial per-seq window, so it grows while copies are in the
   air. *)
let test_transport_prune_keeps_airborne () =
  let engine, tr, received =
    send_spaced ~n:12 ~gap:2e-4 ~extra:(fun _ -> [ 0.0; 0.02 ]) ()
  in
  let kept = ref (-1) in
  ignore
    (Sim.Engine.schedule engine ~at:0.005 (fun () ->
         Rcc.Transport.set_alive tr false));
  ignore
    (Sim.Engine.schedule engine ~at:0.006 (fun () ->
         Rcc.Transport.set_alive tr true;
         kept := Rcc.Transport.seen_size tr));
  Sim.Engine.run engine;
  Alcotest.(check int) "dedup entries kept across the repair" 12 !kept;
  Alcotest.(check (list int)) "each delivered once" (List.init 12 Fun.id)
    (channels received)

(* The dedup window evicts in arrival order, not seq order: with room for
   two, seq 0 arriving last evicts seq 1, the earliest arrival, so seq
   2's late duplicate is dropped and seq 1's is delivered again.  Every
   copy lands before the 4 ms retransmit timeout. *)
let test_transport_window_evicts_oldest_arrival () =
  let params = { Rcc.Transport.default_params with Rcc.Transport.seen_window = 2 } in
  let extra = function
    | 0 -> [ 3e-3 ]
    | 1 -> [ 0.0; 3.5e-3 ]
    | _ -> [ 0.0; 3e-3 ]
  in
  let engine, _, received = send_spaced ~params ~n:3 ~gap:2e-4 ~extra () in
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "arrival order, seq 1 again" [ 1; 2; 0; 1 ]
    (channels received)

let () =
  Alcotest.run "rcc"
    [
      ("control", [ Alcotest.test_case "accessors" `Quick test_control_accessors ]);
      ( "transport",
        [
          Alcotest.test_case "delivers" `Quick test_transport_delivers;
          Alcotest.test_case "within D_max" `Quick test_transport_delivery_within_d_max;
          Alcotest.test_case "aggregation" `Quick test_transport_aggregation;
          Alcotest.test_case "rate pacing" `Quick test_transport_rate_pacing;
          Alcotest.test_case "queued dedup" `Quick test_transport_dedup_queued;
          Alcotest.test_case "loss + retransmission" `Quick
            test_transport_loss_and_retransmission;
          Alcotest.test_case "gives up" `Quick test_transport_gives_up;
          Alcotest.test_case "seq dedup on lost ack" `Quick
            test_transport_no_duplicate_delivery_on_lost_ack;
          Alcotest.test_case "validation" `Quick test_transport_validation;
          Alcotest.test_case "ack cancels retransmit timer" `Quick
            test_transport_ack_cancels_timer;
          Alcotest.test_case "many in flight across an outage" `Quick
            test_transport_many_in_flight;
          Alcotest.test_case "repair keeps airborne dedup" `Quick
            test_transport_prune_keeps_airborne;
          Alcotest.test_case "window evicts oldest arrival" `Quick
            test_transport_window_evicts_oldest_arrival;
          Alcotest.test_case "dead link retransmit schedule" `Quick
            test_transport_dead_link_schedule;
          Alcotest.test_case "inline pump = queued pump" `Quick
            test_transport_inline_matches_queued;
          Alcotest.test_case "inline pump falls back" `Quick
            test_transport_inline_falls_back;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "S_max requirement" `Quick test_s_max_requirement;
          Alcotest.test_case "recovery delay bound" `Quick test_recovery_delay_bound;
          Alcotest.test_case "validation" `Quick test_bounds_validation;
        ] );
      qsuite "props" [ prop_every_sent_message_delivered_once ];
    ]
