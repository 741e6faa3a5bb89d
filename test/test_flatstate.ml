(* Flat state layout: the netstate's placement indexes against a scan of
   its registered connections, plus QCheck equivalence of the flat
   admission/mux hot path against a from-scratch reference.

   The equivalence property drives random scenario prefixes (establish /
   add-backup / remove / drain) through a netstate and, after every op,
   recomputes every link's spare requirement from first principles with
   [Mux_ref] (pairwise S-values over [Mux.on_link]) and requires it to
   equal the incrementally maintained value.  A second property checks
   that establishing one request and removing it again with
   [Netstate.remove_dconn] leaves the state exactly as it was, which
   bench's routing micro tier relies on.  A memory case bounds the mux's
   heap per backup-link registration on the loaded 8×8 torus. *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0

(* ---------------- the netstate's placement indexes ---------------- *)

let test_bids_dense () =
  let ns =
    Bcp.Netstate.create (Net.Builders.ring ~nodes:4 ~capacity:10.0) ()
  in
  for expect = 0 to 99 do
    Alcotest.(check int) "dense ascending" expect
      (Bcp.Netstate.fresh_backup_id ns)
  done

let request ?(backups = 1) src dst =
  {
    Bcp.Establish.src;
    dst;
    traffic = bw1;
    qos = Rtchan.Qos.default;
    backups;
    mux_degree = 1;
  }

let establish_exn ns conn_id req =
  match Bcp.Establish.establish ns ~conn_id req with
  | Ok c -> c
  | Error e ->
    Alcotest.failf "establish %d: %a" conn_id Bcp.Establish.pp_reject e

let total_primary ns =
  Rtchan.Resource.total_primary (Bcp.Netstate.resources ns)

let primary_path (c : Bcp.Dconn.t) = c.Bcp.Dconn.primary.Rtchan.Channel.path

let components ns path =
  Net.Component.Set.elements
    (Net.Path.components (Bcp.Netstate.topology ns) path)

let listed ns c comp =
  List.memq c (Bcp.Netstate.conns_with_primary_on ns comp)

let test_primary_disabled_by_node () =
  let topo = Net.Builders.mesh ~rows:3 ~cols:3 ~capacity:10.0 in
  let ns = Bcp.Netstate.create topo () in
  let c = establish_exn ns 0 (request ~backups:0 0 2) in
  let mid = List.nth (Net.Path.nodes topo (primary_path c)) 1 in
  Alcotest.(check bool) "listed on the middle node" true
    (listed ns c (Net.Component.Node mid));
  Alcotest.(check bool) "not on a far node" false
    (listed ns c (Net.Component.Node 7));
  Alcotest.(check int) "nothing outside the topology" 0
    (List.length
       (Bcp.Netstate.conns_with_primary_on ns (Net.Component.Node 99)))

let test_release_twice () =
  let ns =
    Bcp.Netstate.create (Net.Builders.torus ~rows:3 ~cols:3 ~capacity:10.0) ()
  in
  let other = establish_exn ns 1 (request 4 0) in
  let c = establish_exn ns 0 (request 0 4) in
  let hops c = float_of_int (Net.Path.hops (primary_path c)) in
  Bcp.Netstate.release_primary ns c;
  Alcotest.(check (float 0.0)) "released once" (hops other) (total_primary ns);
  Bcp.Netstate.release_primary ns c;
  Alcotest.(check (float 0.0)) "second release is a no-op" (hops other)
    (total_primary ns);
  Alcotest.(check bool) "still registered" true (Bcp.Netstate.find ns 0 <> None);
  Alcotest.(check bool) "off the primary index" false
    (List.exists (listed ns c) (components ns (primary_path c)));
  Bcp.Netstate.remove_dconn ns 0;
  Alcotest.(check (float 0.0)) "remove releases nothing more" (hops other)
    (total_primary ns)

(* A primary link fails and nobody repairs it: the source's rejoin timer
   expires and the soft-state teardown releases the primary. *)
let test_torn_down_stays_registered () =
  let ns =
    Bcp.Netstate.create (Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0) ()
  in
  let c = establish_exn ns 0 (request 0 5) in
  let config =
    {
      Bcp.Protocol.default_config with
      Bcp.Protocol.rejoin_timeout = 0.05;
      reconfigure_netstate = true;
    }
  in
  let sim = Bcp.Simnet.create ~config ns in
  Bcp.Simnet.fail_link sim ~at:0.01 (List.hd (Net.Path.links (primary_path c)));
  Bcp.Simnet.run ~until:1.0 sim;
  Alcotest.(check bool) "primary released" false c.Bcp.Dconn.primary_alive;
  Alcotest.(check bool) "still registered" true (Bcp.Netstate.find ns 0 <> None);
  Alcotest.(check bool) "off the primary index" false
    (List.exists (listed ns c) (components ns (primary_path c)));
  Alcotest.(check (float 0.0)) "no primary bandwidth left" 0.0
    (total_primary ns)

(* Connection 0 is the oldest; a failure on a link only its primary
   uses promotes its backup, and the new primary, the newest channel,
   comes last on every component it crosses, after older primaries. *)
let test_promoted_listed_newest () =
  let ns =
    Bcp.Netstate.create (Net.Builders.torus ~rows:4 ~cols:4 ~capacity:10.0) ()
  in
  let a = establish_exn ns 0 (request 0 2) in
  List.iteri
    (fun i (src, dst) -> ignore (establish_exn ns (i + 1) (request src dst)))
    [ (1, 3); (4, 6); (8, 10); (5, 13); (2, 14); (12, 3) ];
  let only_a l =
    List.map (fun c -> c.Bcp.Dconn.id)
      (Bcp.Netstate.conns_with_primary_on ns (Net.Component.Link l))
    = [ 0 ]
  in
  let l = List.find only_a (Net.Path.links (primary_path a)) in
  let failed = [ Net.Component.Link l ] in
  let result = Bcp.Recovery.simulate ns ~failed in
  let summary = Bcp.Reconfig.commit ~restore_protection:false ns ~failed ~result in
  Alcotest.(check int) "one promotion" 1 summary.Bcp.Reconfig.promoted;
  let shared = ref 0 in
  List.iter
    (fun comp ->
      match List.rev (Bcp.Netstate.conns_with_primary_on ns comp) with
      | newest :: older ->
        Alcotest.(check bool) "promoted connection newest" true (newest == a);
        if older <> [] then incr shared
      | [] -> Alcotest.fail "promoted primary not listed")
    (components ns (primary_path a));
  Alcotest.(check bool) "shares a component with older primaries" true
    (!shared > 0)

(* The netstate's link and node indexes against a list model read off
   [Netstate.dconns] ([Netstate_ref]): after every step, each link's and
   node's primaries (ascending channel id) and backups (newest first)
   equal the scan's, and each link's reserved primary bandwidth is one
   unit per live primary crossing it.  Steps establish (rejections roll
   back), remove a connection, commit a failure through [Reconfig], or
   let [Simnet]'s soft-state teardown write a failure back. *)
type index_op =
  | Open of int * int
  | Close of int
  | Commit of bool * int
  | Teardown of bool * int

let gen_index_ops =
  QCheck.Gen.(
    list_size (int_range 5 30)
      (frequency
         [
           (6, map2 (fun a b -> Open (a, b)) (int_bound 15) (int_bound 15));
           (2, map (fun i -> Close i) (int_bound 1000));
           (1, map2 (fun l i -> Commit (l, i)) bool (int_bound 63));
           (1, map2 (fun l i -> Teardown (l, i)) bool (int_bound 63));
         ]))

let index_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    gen_index_ops

let check_index ns ~step =
  let topo = Bcp.Netstate.topology ns in
  let conn_ids = List.map (fun c -> c.Bcp.Dconn.id) in
  let bids = List.map (fun (c, b) -> (c.Bcp.Dconn.id, b.Bcp.Dconn.bid)) in
  let check comp =
    if
      conn_ids (Bcp.Netstate.conns_with_primary_on ns comp)
      <> conn_ids (Netstate_ref.conns_with_primary_on ns comp)
    then
      QCheck.Test.fail_reportf "step %d: primaries on %s" step
        (Net.Component.to_string comp);
    if
      bids (Bcp.Netstate.backups_using ns comp)
      <> bids (Netstate_ref.backups_using ns comp)
    then
      QCheck.Test.fail_reportf "step %d: backups on %s" step
        (Net.Component.to_string comp)
  in
  for l = 0 to Net.Topology.num_links topo - 1 do
    check (Net.Component.Link l);
    let live =
      List.length (Netstate_ref.conns_with_primary_on ns (Net.Component.Link l))
    in
    if
      Rtchan.Resource.primary (Bcp.Netstate.resources ns) l
      <> float_of_int live
    then QCheck.Test.fail_reportf "step %d: link %d reservation" step l
  done;
  for v = 0 to Net.Topology.num_nodes topo - 1 do
    check (Net.Component.Node v)
  done;
  check (Net.Component.Link (Net.Topology.num_links topo));
  (* A backup is in the mux on the links of its path iff it is
     [Standby], and the mux holds no backup of a removed connection. *)
  let mux = Bcp.Netstate.mux ns in
  let standby_entries = ref 0 in
  List.iter
    (fun c ->
      List.iter
        (fun b ->
          let standby = b.Bcp.Dconn.state = Bcp.Dconn.Standby in
          List.iter
            (fun link ->
              if standby then incr standby_entries;
              if Mux_ref.mem mux ~link ~backup:b.Bcp.Dconn.bid <> standby then
                QCheck.Test.fail_reportf
                  "step %d: backup %d (standby %b) in the mux on link %d: %b"
                  step b.Bcp.Dconn.bid standby link (not standby))
            (Net.Path.links b.Bcp.Dconn.path))
        c.Bcp.Dconn.backups)
    (Bcp.Netstate.dconns ns);
  let entries = ref 0 in
  for link = 0 to Net.Topology.num_links topo - 1 do
    entries := !entries + Bcp.Mux.count_on mux ~link
  done;
  if !entries <> !standby_entries then
    QCheck.Test.fail_reportf "step %d: %d mux entries, %d standby backup links"
      step !entries !standby_entries

let prop_index_model =
  QCheck.Test.make ~name:"link/node indexes = list model" ~count:100 index_ops
    (fun ops ->
      let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:6.0 in
      let ns = Bcp.Netstate.create topo () in
      let comp is_link i =
        if is_link then Net.Component.Link (i mod Net.Topology.num_links topo)
        else Net.Component.Node (i mod Net.Topology.num_nodes topo)
      in
      let config =
        {
          Bcp.Protocol.default_config with
          Bcp.Protocol.rejoin_timeout = 0.05;
          reconfigure_netstate = true;
        }
      in
      List.iteri
        (fun step op ->
          (match op with
          | Open (a, b) ->
            if a <> b then
              ignore
                (Bcp.Establish.establish ns ~conn_id:step
                   (request ~backups:(1 + (step mod 2)) a b))
          | Close i -> (
            match
              List.sort
                (fun a b -> Int.compare a.Bcp.Dconn.id b.Bcp.Dconn.id)
                (Bcp.Netstate.dconns ns)
            with
            | [] -> ()
            | l ->
              Bcp.Netstate.remove_dconn ns
                (List.nth l (i mod List.length l)).Bcp.Dconn.id)
          | Commit (is_link, i) ->
            let failed = [ comp is_link i ] in
            let result = Bcp.Recovery.simulate ns ~failed in
            ignore (Bcp.Reconfig.commit ns ~failed ~result)
          | Teardown (is_link, i) ->
            let sim = Bcp.Simnet.create ~config ns in
            (match comp is_link i with
            | Net.Component.Link l -> Bcp.Simnet.fail_link sim ~at:0.01 l
            | Net.Component.Node v -> Bcp.Simnet.fail_node sim ~at:0.01 v);
            Bcp.Simnet.run ~until:0.5 sim);
          check_index ns ~step)
        ops;
      true)

(* ---------------- scenario-prefix equivalence ---------------- *)

type op =
  | Establish of int (* pair index into the shuffled workload *)
  | Add_backup of int (* grow a live connection by one backup *)
  | Remove of int (* index into the live list *)
  | Drain of int (* remove a block of connections *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 10 60)
      (frequency
         [
           (6, map (fun i -> Establish i) (int_bound 1000));
           (2, map (fun i -> Add_backup i) (int_bound 1000));
           (2, map (fun i -> Remove i) (int_bound 1000));
           (1, map (fun n -> Drain n) (int_range 1 5));
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    gen_ops

let request_of pairs i =
  {
    (pairs.(i mod Array.length pairs) : Workload.Generator.request) with
    backups = 1 + (i mod 2);
    mux_degree = 1 + (i mod 4);
  }

(* Every link's incremental spare requirement against the recompute.
   Exact: every bandwidth here is 1 Mbps, so sums are order-independent. *)
let check_all_links ns ~after =
  let mux = Bcp.Netstate.mux ns in
  for link = 0 to Net.Topology.num_links (Bcp.Netstate.topology ns) - 1 do
    match Mux_ref.mismatch ~lambda:(Bcp.Netstate.lambda ns) mux ~link with
    | None -> ()
    | Some (got, expected) ->
      QCheck.Test.fail_reportf
        "after %s: link %d incremental requirement %.17g, reference %.17g"
        after link got expected
  done

(* Deterministic interpreter; returns the netstate and the workload the
   requests were drawn from.  With [~check], every link is checked against
   [Mux_ref] after every op, and a mismatch reports the transcript of
   admission verdicts so far. *)
let run_scenario ~check ops =
  let topo = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0 in
  let ns = Bcp.Netstate.create ~lambda:1e-4 topo () in
  let rng = Sim.Prng.create 42 in
  let pairs =
    Array.of_list
      (Workload.Generator.shuffled rng
         (Workload.Generator.all_pairs ~backups:1 ~mux_degree:3 topo))
  in
  let next = ref 0 in
  let live = ref [] in
  let t = Buffer.create 256 in
  let note fmt = Printf.ksprintf (Buffer.add_string t) fmt in
  List.iter
    (fun op ->
      (match op with
      | Establish i -> (
        let conn_id = !next in
        incr next;
        match Bcp.Establish.establish ns ~conn_id (request_of pairs i) with
        | Ok conn ->
          live := !live @ [ conn ];
          note "E%d+;" conn_id
        | Error _ -> note "E%d-;" conn_id)
      | Add_backup i -> (
        match !live with
        | [] -> ()
        | l -> (
          let conn = List.nth l (i mod List.length l) in
          match
            Bcp.Establish.add_backup ns conn ~mux_degree:(1 + (i mod 4))
          with
          | Ok b -> note "A%d.%d;" conn.Bcp.Dconn.id b.Bcp.Dconn.serial
          | Error _ -> note "A%d-;" conn.Bcp.Dconn.id))
      | Remove i -> (
        match !live with
        | [] -> ()
        | l ->
          let conn = List.nth l (i mod List.length l) in
          live := List.filter (fun c -> c != conn) !live;
          Bcp.Netstate.remove_dconn ns conn.Bcp.Dconn.id;
          note "R%d;" conn.Bcp.Dconn.id)
      | Drain n ->
        let rec drop k =
          if k > 0 then
            match !live with
            | [] -> ()
            | conn :: rest ->
              live := rest;
              Bcp.Netstate.remove_dconn ns conn.Bcp.Dconn.id;
              note "D%d;" conn.Bcp.Dconn.id;
              drop (k - 1)
        in
        drop n);
      if check then check_all_links ns ~after:(Buffer.contents t))
    ops;
  (ns, pairs)

let prop_flat_equals_reference =
  QCheck.Test.make ~count:40
    ~name:"flat tables = map reference on random prefixes" arb_ops (fun ops ->
      ignore (run_scenario ~check:true ops);
      true)

(* Spare pool, load and spare fraction as raw bits: "as it was" means
   bit-identical, not equal within a tolerance. *)
let snapshot ns =
  ( Array.map Int64.bits_of_float (Bcp.Netstate.spare_pool ns),
    Int64.bits_of_float (Bcp.Netstate.network_load ns),
    Int64.bits_of_float (Bcp.Netstate.spare_fraction ns) )

let admission_checks () =
  Option.value ~default:0
    (List.assoc_opt "establish.admission_checks"
       (Sim.Prof.report ()).Sim.Prof.counters)

(* Establish [req], then tear it down again; returns the admission checks
   the request made and its outcome (the chosen paths, or the reject). *)
let establish_and_remove ns ~conn_id req =
  let before = admission_checks () in
  let outcome =
    match Bcp.Establish.establish ns ~conn_id req with
    | Ok conn ->
      Bcp.Netstate.remove_dconn ns conn_id;
      Ok
        ( Net.Path.links conn.Bcp.Dconn.primary.Rtchan.Channel.path,
          List.map
            (fun (b : Bcp.Dconn.backup) ->
              (b.Bcp.Dconn.serial, Net.Path.links b.Bcp.Dconn.path))
            conn.Bcp.Dconn.backups )
    | Error e -> Error (Format.asprintf "%a" Bcp.Establish.pp_reject e)
  in
  (admission_checks () - before, outcome)

let prop_establish_remove_restores =
  QCheck.Test.make ~count:40
    ~name:"establish + remove_dconn restores the state"
    QCheck.(pair arb_ops (int_bound 1000))
    (fun (ops, i) ->
      Sim.Prof.enable ();
      Fun.protect
        ~finally:(fun () ->
          Sim.Prof.disable ();
          Sim.Prof.reset ())
      @@ fun () ->
      let probed, pairs = run_scenario ~check:false ops in
      let untouched, _ = run_scenario ~check:false ops in
      let before = snapshot probed in
      ignore (establish_and_remove probed ~conn_id:1_000_000 (request_of pairs i));
      let restored = snapshot probed = before in
      let next = request_of pairs (i + 1) in
      let after_probe = establish_and_remove probed ~conn_id:1_000_001 next in
      let fresh = establish_and_remove untouched ~conn_id:1_000_001 next in
      restored && after_probe = fresh && fst fresh > 0)

(* ---------------- memory ---------------- *)

(* The mux keeps one record per backup and, per link, only a handle
   packed with its primary's index entry, |Π| and Σbw(Π) per slot: after
   the paper's all-pairs set-up on the 8×8 torus (18 480 backup-link
   registrations) it holds 14.7 words per registration, where copying
   each backup's record into every link's table took 26.2.  The ceiling
   leaves room for allocator slack only. *)
let words_per_registration_ceiling = 16.0

let test_mux_words_per_registration () =
  let ns = (Eval.Setup.build Eval.Setup.Torus8).Eval.Setup.ns in
  let mux = Bcp.Netstate.mux ns in
  let registrations = ref 0 in
  for link = 0 to Net.Topology.num_links (Bcp.Netstate.topology ns) - 1 do
    registrations := !registrations + Bcp.Mux.count_on mux ~link
  done;
  let words =
    float_of_int (Obj.reachable_words (Obj.repr mux))
    /. float_of_int !registrations
  in
  if words > words_per_registration_ceiling then
    Alcotest.failf "mux holds %.2f words per registration (ceiling %.1f)"
      words words_per_registration_ceiling

let () =
  Alcotest.run "flatstate"
    [
      ( "ids",
        [ Alcotest.test_case "fresh is dense ascending" `Quick test_bids_dense ]
      );
      ( "index",
        [
          Alcotest.test_case "primary disabled by a node" `Quick
            test_primary_disabled_by_node;
          Alcotest.test_case "releasing a primary twice is a no-op" `Quick
            test_release_twice;
          Alcotest.test_case "torn-down primary stays registered" `Quick
            test_torn_down_stays_registered;
          Alcotest.test_case "promoted primary listed newest" `Quick
            test_promoted_listed_newest;
        ] );
      ("props", [ QCheck_alcotest.to_alcotest prop_index_model ]);
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [ prop_flat_equals_reference; prop_establish_remove_restores ] );
      ( "memory",
        [
          Alcotest.test_case "mux words per registration" `Quick
            test_mux_words_per_registration;
        ] );
    ]
