(* The BCP protocol handler driven by hand over a fake context: timers
   are a list, every send is appended to a list, and a test delivers
   whatever it wants to whichever node it wants.  No engine and no RCC
   transport run, so each check sees exactly what one handler step
   sends. *)

let lambda = 1e-4

let request ?(mux_degree = 1) src dst =
  {
    Bcp.Establish.src;
    dst;
    traffic = Rtchan.Traffic.of_bandwidth 1.0;
    qos = Rtchan.Qos.default;
    backups = 1;
    mux_degree;
  }

let establish_exn ns id req =
  match Bcp.Establish.establish ns ~conn_id:id req with
  | Ok c -> c
  | Error e -> Alcotest.failf "establish %d: %a" id Bcp.Establish.pp_reject e

type fake = {
  mutable clock : float;
  mutable timers : (int * float * (unit -> unit)) list;  (* handle, due, action *)
  mutable handles : int;
  mutable rcc : (int * int * Rcc.Control.t) list;  (* from, to, message *)
  mutable be : (int * int * Bcp.Protocol.be_message) list;
}

let context f =
  {
    Bcp.Node.now = (fun () -> f.clock);
    rcc_send = (fun ~from_node ~to_node m -> f.rcc <- f.rcc @ [ (from_node, to_node, m) ]);
    be_send =
      (fun ~from_node ~to_node m ->
        f.be <- f.be @ [ (from_node, to_node, m) ];
        true);
    set_timer =
      (fun delay action ->
        f.handles <- f.handles + 1;
        f.timers <- f.timers @ [ (f.handles, f.clock +. delay, action) ];
        f.handles);
    cancel_timer = (fun h -> f.timers <- List.filter (fun (h', _, _) -> h' <> h) f.timers);
    node_alive = (fun _ -> true);
    telemetry = false;
    emit = (fun _ -> Alcotest.fail "an event was built with telemetry off");
  }

(* Move the clock to [until], firing every timer due by then in due
   order. *)
let rec advance f ~until =
  match List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) f.timers with
  | (h, due, action) :: _ when due <= until ->
    f.timers <- List.filter (fun (h', _, _) -> h' <> h) f.timers;
    f.clock <- due;
    action ();
    advance f ~until
  | _ -> f.clock <- until

let handler ?(config = Bcp.Protocol.default_config) ns =
  let f = { clock = 0.0; timers = []; handles = 0; rcc = []; be = [] } in
  (f, Bcp.Node.create (context f) config ns (Bcp.Node.template ns))

(* One connection 0 -> 3 on a six-node ring: a three-hop primary one way
   round, its backup the other. *)
let ring_conn () =
  let ns = Bcp.Netstate.create ~lambda (Net.Builders.ring ~nodes:6 ~capacity:10.0) () in
  let c = establish_exn ns 0 (request 0 3) in
  let p =
    Array.of_list
      (Net.Path.nodes (Bcp.Netstate.topology ns) c.Bcp.Dconn.primary.Rtchan.Channel.path)
  in
  Alcotest.(check int) "three-hop primary" 4 (Array.length p);
  (ns, p)

let link ns a b = Option.get (Net.Topology.find_link (Bcp.Netstate.topology ns) ~src:a ~dst:b)
let primary = Bcp.Protocol.cid ~conn:0 ~serial:0

(* Both ends of the primary's middle link detect its failure. *)
let test_report_directions () =
  let check scheme expected_ends =
    let ns, p = ring_conn () in
    let config = { Bcp.Protocol.default_config with Bcp.Protocol.scheme } in
    let f, n = handler ~config ns in
    let mid = Net.Component.Link (link ns p.(1) p.(2)) in
    Bcp.Node.handle n p.(1) (Bcp.Node.Detect mid);
    Bcp.Node.handle n p.(2) (Bcp.Node.Detect mid);
    let report = Rcc.Control.Failure_report { channel = primary; component = mid } in
    let expected = List.map (fun (i, j) -> (p.(i), p.(j), report)) expected_ends in
    Alcotest.(check bool) "reports sent" true (f.rcc = expected);
    Alcotest.(check bool) "both ends U" true
      (List.for_all
         (fun i -> Bcp.Node.chan_state_at n ~node:p.(i) ~conn:0 ~serial:0 = Bcp.Protocol.U)
         [ 1; 2 ])
  in
  check Bcp.Protocol.Scheme2 [ (1, 0) ];
  check Bcp.Protocol.Scheme1 [ (2, 3) ];
  check Bcp.Protocol.Scheme3 [ (1, 0); (2, 3) ]

(* Two connections whose backups share the spare pool of link x -> y,
   sized for one of them (the bottleneck network of test_simnet). *)
let test_mux_failure_names_link () =
  let topo = Net.Topology.create ~num_nodes:6 in
  let s1 = 0 and s2 = 1 and d1 = 2 and d2 = 3 and x = 4 and y = 5 in
  List.iter
    (fun (a, b) -> ignore (Net.Topology.add_duplex topo ~a ~b ~capacity:10.0))
    [ (s1, d1); (s2, d2); (s1, x); (s2, x); (x, y); (y, d1); (y, d2) ];
  let ns = Bcp.Netstate.create ~lambda topo () in
  ignore (establish_exn ns 0 (request s1 d1));
  ignore (establish_exn ns 1 (request s2 d2));
  let xy = link ns x y in
  let f, n = handler ns in
  let activate conn from_ =
    let channel = Bcp.Protocol.cid ~conn ~serial:1 in
    Bcp.Node.handle n x
      (Bcp.Node.Control
         { from_; msg = Rcc.Control.Activation { conn; serial = 1; channel } })
  in
  activate 0 s1;
  Alcotest.(check (float 0.0)) "first activation drew the pool" 0.0
    (Bcp.Node.pool_remaining n xy);
  f.rcc <- [];
  activate 1 s2;
  let report =
    Rcc.Control.Mux_failure_report { channel = Bcp.Protocol.cid ~conn:1 ~serial:1; link = xy }
  in
  Alcotest.(check bool) "reported toward both ends, naming x -> y" true
    (f.rcc = [ (x, s2, report); (x, y, report) ]);
  Alcotest.(check bool) "starved backup is U at x" true
    (Bcp.Node.chan_state_at n ~node:x ~conn:1 ~serial:1 = Bcp.Protocol.U)

let test_rejoin_request_answered () =
  let ns, p = ring_conn () in
  let f, n = handler ns in
  Bcp.Node.handle n p.(3) (Bcp.Node.Detect (Net.Component.Link (link ns p.(1) p.(2))));
  Alcotest.(check bool) "primary U at the destination" true
    (Bcp.Node.chan_state_at n ~node:p.(3) ~conn:0 ~serial:0 = Bcp.Protocol.U);
  Alcotest.(check int) "its rejoin timer runs" 1 (List.length f.timers);
  Bcp.Node.handle n p.(3)
    (Bcp.Node.Best_effort (Bcp.Protocol.Rejoin_request { channel = primary }));
  Alcotest.(check bool) "answered with a rejoin upstream" true
    (f.be = [ (p.(3), p.(2), Bcp.Protocol.Rejoin { channel = primary }) ]);
  Alcotest.(check int) "rejoin timer cancelled" 0 (List.length f.timers);
  let later = 2.0 *. Bcp.Protocol.default_config.Bcp.Protocol.rejoin_timeout in
  advance f ~until:later;
  Alcotest.(check bool) "repaired: B at the destination" true
    (Bcp.Node.chan_state_at n ~node:p.(3) ~conn:0 ~serial:0 = Bcp.Protocol.B);
  (* Unanswered, the same failure tears the entry down when its timer
     fires. *)
  let f, n = handler ns in
  Bcp.Node.handle n p.(3) (Bcp.Node.Detect (Net.Component.Link (link ns p.(1) p.(2))));
  advance f ~until:later;
  Alcotest.(check bool) "expired: N at the destination" true
    (Bcp.Node.chan_state_at n ~node:p.(3) ~conn:0 ~serial:0 = Bcp.Protocol.N)

let () =
  Alcotest.run "node"
    [
      ( "fake context",
        [
          Alcotest.test_case "report directions per scheme" `Quick test_report_directions;
          Alcotest.test_case "mux failure names the link" `Quick test_mux_failure_names_link;
          Alcotest.test_case "rejoin request answered" `Quick test_rejoin_request_answered;
        ] );
    ]
