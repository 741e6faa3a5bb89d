(* Flat state layout: dense-id interning units plus QCheck equivalence of
   the flat admission/mux hot path against a from-scratch reference.

   The equivalence property drives random scenario prefixes (establish /
   add-backup / remove / drain) through a netstate and, after every op,
   recomputes every link's spare requirement from first principles with
   [Mux_ref] (pairwise S-values over [Mux.on_link]) and requires it to
   equal the incrementally maintained value.  A second property checks
   that establishing one request and removing it again with
   [Netstate.remove_dconn] leaves the state exactly as it was, which
   bench's routing micro tier relies on. *)

let bw1 = Rtchan.Traffic.of_bandwidth 1.0

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- dense-id interning units ---------------- *)

let test_ids_stability () =
  let ids = Bcp.Ids.create ~kind:"unit" () in
  for expect = 0 to 99 do
    Alcotest.(check int) "dense ascending" expect (Bcp.Ids.fresh ids)
  done;
  Alcotest.(check int) "watermark" 100 (Bcp.Ids.watermark ids);
  Alcotest.(check int) "live" 100 (Bcp.Ids.live_count ids)

let test_ids_recycling () =
  let ids = Bcp.Ids.create ~kind:"unit" () in
  let _a = Bcp.Ids.fresh ids in
  let b = Bcp.Ids.fresh ids in
  let c = Bcp.Ids.fresh ids in
  Bcp.Ids.release ids b;
  Bcp.Ids.release ids c;
  (* LIFO: the most recently released id comes back first, keeping the
     live set dense under churn. *)
  Alcotest.(check int) "lifo first" c (Bcp.Ids.fresh ids);
  Alcotest.(check int) "lifo second" b (Bcp.Ids.fresh ids);
  Alcotest.(check int) "watermark unchanged" 3 (Bcp.Ids.watermark ids);
  Alcotest.(check bool) "mem live" true (Bcp.Ids.mem ids b);
  Bcp.Ids.release ids b;
  Alcotest.(check bool) "mem released" false (Bcp.Ids.mem ids b)

let test_ids_errors () =
  let ids = Bcp.Ids.create ~kind:"bid" () in
  ignore (Bcp.Ids.fresh ids);
  let expect_invalid ~id f =
    match f () with
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names the space and id %s" msg id)
        true
        (contains ~sub:"bid" msg && contains ~sub:id msg)
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid ~id:"7" (fun () -> Bcp.Ids.check ids 7);
  expect_invalid ~id:"-1" (fun () -> Bcp.Ids.check ids (-1));
  expect_invalid ~id:"3" (fun () -> Bcp.Ids.release ids 3)

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
  let r = pairs.(i mod Array.length pairs) in
  {
    Bcp.Establish.src = r.Workload.Generator.src;
    dst = r.dst;
    traffic = bw1;
    qos = r.qos;
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

let () =
  Alcotest.run "flatstate"
    [
      ( "ids",
        [
          Alcotest.test_case "fresh is dense ascending" `Quick
            test_ids_stability;
          Alcotest.test_case "release recycles LIFO" `Quick test_ids_recycling;
          Alcotest.test_case "errors name the space and id" `Quick
            test_ids_errors;
        ] );
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [ prop_flat_equals_reference; prop_establish_remove_restores ] );
    ]
