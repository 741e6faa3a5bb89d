(* Fuzz the multiplexing engine (stamped overlap counting, pow memo,
   probe memos, requirement refreshed during the update walk) against the
   naive full-recompute reference in [Mux_ref]: after every register /
   unregister the touched link's spare requirement must match, and after
   arbitrary register / unregister / required_with sequences on random
   topologies every observable — spare requirement, Π sizes, conflict
   sets, Ψ, admission what-ifs — must match the reference EXACTLY
   (bandwidths are dyadic rationals, so sums are order-independent and
   float equality is legitimate).  Unit cases pin the stamp array's
   ownership (interleaved probes and registrations, growth) and the
   requirement after removals. *)

let lambda = 1e-4

let bandwidths = [| 0.5; 1.0; 1.5; 2.0; 3.0 |]

(* Component families: plain small encodings, encodings beyond the stamp
   range (merge-scan fallback), and negative encodings (also fallback). *)
let components_of ~family ~variant =
  let base = family * 10 in
  let cs =
    match variant mod 3 with
    | 0 -> [ base; base + 2; base + 4 ]
    | 1 -> [ base; base + 2; 70_000 + base ]
    | _ -> [ -6 + family; base + 2; base + 4 ]
  in
  let a = Array.of_list (List.sort_uniq Int.compare cs) in
  a

let info_of ~bid ~degree ~family ~variant ~bw_idx =
  {
    Bcp.Mux.backup = bid;
    conn = bid / 2;
    (* even/odd bid pairs share a connection: exercises the same-conn
       short-circuit *)
    serial = 1;
    nu = Reliability.Combinatorial.nu_of_degree ~lambda degree;
    bw = bandwidths.(bw_idx mod Array.length bandwidths);
    primary_components = components_of ~family ~variant;
  }

let pi_naive = Mux_ref.pi_naive ~lambda
let requirement_naive = Mux_ref.requirement_naive ~lambda
let required_with_naive = Mux_ref.required_with_naive ~lambda

(* ---------------- op sequences ---------------- *)

type op = {
  kind : int; (* 0,1: register; 2: unregister; 3: required_with probe *)
  link : int;
  bid : int;
  degree : int;
  family : int;
  variant : int;
  bw_idx : int;
}

let op_gen =
  QCheck.Gen.(
    map
      (fun (kind, link, bid, (degree, family, variant, bw_idx)) ->
        { kind; link; bid; degree; family; variant; bw_idx })
      (quad (int_range 0 3) (int_range 0 40) (int_range 0 7)
         (quad (int_range 0 6) (int_range 0 5) (int_range 0 5) (int_range 0 4))))

let print_op o =
  Printf.sprintf "{kind=%d;link=%d;bid=%d;deg=%d;fam=%d;var=%d;bw=%d}" o.kind
    o.link o.bid o.degree o.family o.variant o.bw_idx

let arbitrary_ops =
  QCheck.make
    ~print:(fun (nodes, ops) ->
      Printf.sprintf "nodes=%d [%s]" nodes
        (String.concat "; " (List.map print_op ops)))
    QCheck.Gen.(
      pair (int_range 3 8) (list_size (int_range 1 80) op_gen))

let check_exact what expected got =
  if expected <> got then
    QCheck.Test.fail_reportf "%s: expected %.17g got %.17g" what expected got

let check_int what expected got =
  if expected <> got then
    QCheck.Test.fail_reportf "%s: expected %d got %d" what expected got

(* The touched link against the recompute, after a register/unregister. *)
let check_link m ~link =
  match Mux_ref.mismatch m ~link with
  | None -> ()
  | Some (got, expected) ->
    QCheck.Test.fail_reportf
      "link %d: incremental requirement %.17g, reference %.17g" link got
      expected

let prop_matches_reference =
  QCheck.Test.make ~name:"incremental mux == naive full recompute" ~count:150
    arbitrary_ops (fun (nodes, ops) ->
      let topo = Net.Builders.ring ~nodes ~capacity:100.0 in
      let nlinks = Net.Topology.num_links topo in
      let m = Bcp.Mux.create topo ~lambda in
      let model = Hashtbl.create 16 in
      (* link -> infos, insertion order *)
      let entries link =
        Option.value ~default:[] (Hashtbl.find_opt model link)
      in
      List.iter
        (fun o ->
          let link = o.link mod nlinks in
          match o.kind with
          | 0 | 1 ->
            if
              not
                (List.exists
                   (fun (e : Bcp.Mux.backup_info) -> e.backup = o.bid)
                   (entries link))
            then begin
              let info =
                info_of ~bid:o.bid ~degree:o.degree ~family:o.family
                  ~variant:o.variant ~bw_idx:o.bw_idx
              in
              Bcp.Mux.register m ~link info;
              check_link m ~link;
              Hashtbl.replace model link (entries link @ [ info ])
            end
          | 2 ->
            Bcp.Mux.unregister m ~link ~backup:o.bid;
            check_link m ~link;
            Hashtbl.replace model link
              (List.filter
                 (fun (e : Bcp.Mux.backup_info) -> e.backup <> o.bid)
                 (entries link))
          | _ ->
            let cand =
              info_of ~bid:(100 + o.bid) ~degree:o.degree ~family:o.family
                ~variant:o.variant ~bw_idx:o.bw_idx
            in
            check_exact
              (Printf.sprintf "required_with link %d" link)
              (required_with_naive (entries link) cand)
              (Bcp.Mux.required_with m ~link cand))
        ops;
      (* Final audit of every observable on every link. *)
      for link = 0 to nlinks - 1 do
        let es = entries link in
        check_exact
          (Printf.sprintf "requirement link %d" link)
          (requirement_naive es)
          (Bcp.Mux.spare_requirement m ~link);
        check_exact
          (Printf.sprintf "on_link recompute link %d" link)
          (requirement_naive es)
          (Mux_ref.requirement m ~link);
        check_int
          (Printf.sprintf "count link %d" link)
          (List.length es)
          (Bcp.Mux.count_on m ~link);
        List.iter
          (fun (e : Bcp.Mux.backup_info) ->
            let pi = pi_naive es e in
            check_int
              (Printf.sprintf "pi_size link %d bid %d" link e.backup)
              (List.length pi)
              (Bcp.Mux.pi_size m ~link ~backup:e.backup);
            check_int
              (Printf.sprintf "psi_size link %d bid %d" link e.backup)
              (List.length es - List.length pi - 1)
              (Bcp.Mux.psi_size m ~link ~backup:e.backup);
            let expected_set =
              List.sort_uniq Int.compare
                (List.map (fun (b : Bcp.Mux.backup_info) -> b.backup) pi)
            in
            if expected_set <> Bcp.Mux.conflict_set m ~link ~backup:e.backup
            then
              QCheck.Test.fail_reportf "conflict_set link %d bid %d" link
                e.backup)
          es
      done;
      true)

(* Probes must answer exactly like the unbatched required_with, including
   after table mutations invalidate their memos. *)
let prop_probe_matches =
  QCheck.Test.make ~name:"probe == required_with across mutations"
    ~count:100 arbitrary_ops (fun (nodes, ops) ->
      let topo = Net.Builders.ring ~nodes ~capacity:100.0 in
      let nlinks = Net.Topology.num_links topo in
      let m = Bcp.Mux.create topo ~lambda in
      let cand = info_of ~bid:999 ~degree:3 ~family:2 ~variant:0 ~bw_idx:1 in
      let probe = Bcp.Mux.probe m cand in
      let audit () =
        for link = 0 to nlinks - 1 do
          check_exact
            (Printf.sprintf "probe_required link %d" link)
            (Bcp.Mux.required_with m ~link cand)
            (Bcp.Mux.probe_required probe ~link);
          (* repeated call hits the memo and must not drift *)
          check_exact
            (Printf.sprintf "probe_required memo link %d" link)
            (Bcp.Mux.required_with m ~link cand)
            (Bcp.Mux.probe_required probe ~link)
        done
      in
      audit ();
      List.iter
        (fun o ->
          let link = o.link mod nlinks in
          (match o.kind with
          | 2 -> Bcp.Mux.unregister m ~link ~backup:o.bid
          | _ ->
            if not (Bcp.Mux.mem m ~link ~backup:o.bid) then
              Bcp.Mux.register m ~link
                (info_of ~bid:o.bid ~degree:o.degree ~family:o.family
                   ~variant:o.variant ~bw_idx:o.bw_idx));
          (* every mutation bumps the stamp: the probe must recompute *)
          audit ())
        (List.filteri (fun i _ -> i < 12) ops);
      true)

(* The stamped count agrees with the reference merge.  Candidates reach
   the top of the stamp range, so the stamp array grows between cases, and
   peers reach past it and below zero. *)
let prop_stamped_overlap =
  let edge = [| 0; 1; 62; 63; 64; 126; 127; 65_534; 65_535 |] in
  let elem = QCheck.Gen.(frequency [ (1, oneofa edge); (3, int_range 0 200) ]) in
  let peer_elem =
    QCheck.Gen.(
      frequency
        [
          (4, elem);
          (1, int_range 201 2000);
          (1, int_range 65_536 70_000);
          (1, int_range (-5) (-1));
        ])
  in
  let sorted_arr g =
    QCheck.Gen.(
      map
        (fun l -> Array.of_list (List.sort_uniq Int.compare l))
        (list_size (int_range 0 40) g))
  in
  QCheck.Test.make ~name:"stamped_count == shared_count" ~count:500
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "[%s] [%s]"
           (String.concat ";" (List.map string_of_int (Array.to_list a)))
           (String.concat ";" (List.map string_of_int (Array.to_list b))))
       (QCheck.Gen.pair (sorted_arr elem) (sorted_arr peer_elem)))
    (fun (a, b) -> Bcp.Mux.stamped_count a b = Some (Bcp.Mux.shared_count a b))

(* ---------------- unit cases ---------------- *)

let test_stamped_fallbacks () =
  let count = Alcotest.(option int) in
  Alcotest.check count "negative components fall back to the merge" None
    (Bcp.Mux.stamped_count [| -4; 2; 8 |] [| 2; 8 |]);
  Alcotest.check count "out-of-range components fall back to the merge" None
    (Bcp.Mux.stamped_count [| 2; 65_536 |] [| 2 |]);
  Alcotest.check count "the last stampable encoding still stamps" (Some 1)
    (Bcp.Mux.stamped_count [| 3; 65_535 |] [| -1; 65_535; 65_536 |]);
  Alcotest.check count "empty candidate overlaps nothing" (Some 0)
    (Bcp.Mux.stamped_count [||] [| 0; 1; 2 |]);
  (* encodings around the 63-bit word boundaries of the former packed
     bitsets *)
  Alcotest.check count "boundary overlap" (Some 3)
    (Bcp.Mux.stamped_count [| 0; 62; 63; 125; 126 |] [| 62; 63; 64; 126 |])

let test_descriptive_lookup_errors () =
  let m = Bcp.Mux.create (Net.Builders.line ~nodes:2 ~capacity:10.0) ~lambda in
  let expect_msg f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument msg -> msg
  in
  Alcotest.(check string)
    "pi_size names link and backup" "Mux: backup 7 not on link 0"
    (expect_msg (fun () -> Bcp.Mux.pi_size m ~link:0 ~backup:7));
  Alcotest.(check string)
    "psi_size names link and backup" "Mux: backup 9 not on link 1"
    (expect_msg (fun () -> Bcp.Mux.psi_size m ~link:1 ~backup:9));
  Alcotest.(check string)
    "conflict_set names link and backup" "Mux: backup 3 not on link 0"
    (expect_msg (fun () -> Bcp.Mux.conflict_set m ~link:0 ~backup:3))

(* A backup id recycled with a different primary must be re-evaluated
   against its new primary, not the one it was first registered with. *)
let test_bid_recycling_no_stale_cache () =
  let m = Bcp.Mux.create (Net.Builders.line ~nodes:2 ~capacity:10.0) ~lambda in
  let nu = Reliability.Combinatorial.nu_of_degree ~lambda 1 in
  let mk bid cs =
    {
      Bcp.Mux.backup = bid;
      conn = 100 + bid;
      serial = 1;
      nu;
      bw = 1.0;
      primary_components = Array.of_list (List.sort_uniq Int.compare cs);
    }
  in
  let matches_reference what =
    Alcotest.(check (float 0.0))
      (what ^ ": incremental = recompute")
      (Mux_ref.requirement m ~link:0)
      (Bcp.Mux.spare_requirement m ~link:0)
  in
  Bcp.Mux.register m ~link:0 (mk 1 [ 0; 2; 4 ]);
  matches_reference "first";
  (* overlapping: conflict, spare = 2 *)
  Bcp.Mux.register m ~link:0 (mk 2 [ 0; 2; 4 ]);
  matches_reference "overlap";
  Alcotest.(check (float 0.0)) "overlap conflicts" 2.0
    (Bcp.Mux.spare_requirement m ~link:0);
  Bcp.Mux.unregister m ~link:0 ~backup:2;
  matches_reference "unregister";
  (* same id, now disjoint: must multiplex *)
  Bcp.Mux.register m ~link:0 (mk 2 [ 10; 12; 14 ]);
  matches_reference "recycled";
  Alcotest.(check (float 0.0)) "recycled id re-evaluated" 1.0
    (Bcp.Mux.spare_requirement m ~link:0)

(* A reused backup id carries only its new contribution: bury a big
   contribution under a bigger one, unregister it, re-register the same
   bid with a small bandwidth, then remove the cover.  The requirement
   must be the live 1.0, never the dead 10.0 (the engine once kept a
   lazy-deletion heap whose stale items could match a reborn bid). *)
let test_heap_gen_collision () =
  let m = Bcp.Mux.create (Net.Builders.ring ~nodes:4 ~capacity:100.0) ~lambda in
  let info ~bid ~conn ~bw ~comps =
    {
      Bcp.Mux.backup = bid;
      conn;
      serial = 1;
      nu = 0.5;
      bw;
      primary_components = comps;
    }
  in
  let link = 0 in
  (* distinct component families: S ~ 0, no cross conflicts *)
  Bcp.Mux.register m ~link (info ~bid:0 ~conn:0 ~bw:10.0 ~comps:[| 0; 2; 4 |]);
  Bcp.Mux.register m ~link (info ~bid:2 ~conn:1 ~bw:20.0 ~comps:[| 10; 12; 14 |]);
  Bcp.Mux.unregister m ~link ~backup:0;
  Bcp.Mux.register m ~link (info ~bid:0 ~conn:2 ~bw:1.0 ~comps:[| 20; 22; 24 |]);
  Bcp.Mux.unregister m ~link ~backup:2;
  Alcotest.(check (float 0.0))
    "incremental requirement survives bid-generation reuse"
    (Mux_ref.requirement m ~link)
    (Bcp.Mux.spare_requirement m ~link)

(* The registrant's stamps belong to one register call: A on links 0 and
   2 with B registered in between, then A' (A's id, another primary) on
   link 3.  Each link holds a peer whose verdict flips if the registrant's
   stamps are stale. *)
let test_registrant_stamps_per_call () =
  let m = Bcp.Mux.create (Net.Builders.ring ~nodes:4 ~capacity:100.0) ~lambda in
  let nu = Reliability.Combinatorial.nu_of_degree ~lambda 1 in
  let mk bid comps =
    {
      Bcp.Mux.backup = bid;
      conn = 100 + bid;
      serial = 1;
      nu;
      bw = 1.0;
      primary_components = comps;
    }
  in
  let x = [| 64; 66; 68 |] and y = [| 130; 132; 134 |] and z = [| 196; 198; 200 |] in
  let matches_reference what ~link =
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%s: link %d incremental = recompute" what link)
      (Mux_ref.requirement m ~link)
      (Bcp.Mux.spare_requirement m ~link)
  in
  let step what ~link info ~expected =
    Bcp.Mux.register m ~link info;
    matches_reference what ~link;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%s: link %d requirement" what link)
      expected
      (Bcp.Mux.spare_requirement m ~link)
  in
  (* peers: x on links 0 and 1, y on link 2, z on link 3 *)
  step "peer 0" ~link:0 (mk 10 x) ~expected:1.0;
  step "peer 1" ~link:1 (mk 11 x) ~expected:1.0;
  step "peer 2" ~link:2 (mk 12 y) ~expected:1.0;
  step "peer 3" ~link:3 (mk 13 z) ~expected:1.0;
  step "A on 0 (shares x)" ~link:0 (mk 1 x) ~expected:2.0;
  step "B on 1 (disjoint from x)" ~link:1 (mk 2 y) ~expected:1.0;
  step "A on 2 (shares nothing with y)" ~link:2 (mk 1 x) ~expected:1.0;
  step "A' on 3 (shares z)" ~link:3 (mk 1 z) ~expected:2.0;
  List.iter (fun link -> matches_reference "final" ~link) [ 0; 1; 2; 3 ]

(* Connection-distinct backups at degree 1: identical primaries conflict,
   disjoint ones multiplex. *)
let solo ~bid ?(bw = 1.0) comps =
  {
    Bcp.Mux.backup = bid;
    conn = 100 + bid;
    serial = 1;
    nu = Reliability.Combinatorial.nu_of_degree ~lambda 1;
    bw;
    primary_components = comps;
  }

let x = [| 0; 2; 4 |]
let y = [| 6; 8; 10 |]
let z = [| 12; 14; 16 |]

(* Removing the max contributor leaves exactly the next max; the last
   removal leaves exactly +0.0 and no victims. *)
let test_requirement_after_removals () =
  let m = Bcp.Mux.create (Net.Builders.ring ~nodes:4 ~capacity:100.0) ~lambda in
  let link = 0 in
  let check what ~expected ~victims =
    let got = Bcp.Mux.spare_requirement m ~link in
    Alcotest.(check (float 0.0))
      (what ^ ": incremental = recompute")
      (Mux_ref.requirement m ~link) got;
    Alcotest.(check int64)
      (what ^ ": requirement bits")
      (Int64.bits_of_float expected) (Int64.bits_of_float got);
    Alcotest.(check (list int))
      (what ^ ": victims") victims
      (Bcp.Mux.max_requirement_victims m ~link)
  in
  (* A alone on z; B and C share x, so each carries the other *)
  Bcp.Mux.register m ~link (solo ~bid:1 ~bw:3.0 z);
  Bcp.Mux.register m ~link (solo ~bid:2 ~bw:2.0 x);
  Bcp.Mux.register m ~link (solo ~bid:3 ~bw:1.5 x);
  check "full" ~expected:3.5 ~victims:[ 2; 3 ];
  Bcp.Mux.unregister m ~link ~backup:2;
  check "max contributor gone" ~expected:3.0 ~victims:[ 1 ];
  Bcp.Mux.unregister m ~link ~backup:1;
  check "next max gone" ~expected:1.5 ~victims:[ 3 ];
  Bcp.Mux.unregister m ~link ~backup:3;
  check "empty" ~expected:0.0 ~victims:[]

(* [probe_required] against the reference and the one-shot
   [required_with]; the reference comes first, as it stamps nothing. *)
let check_probe m what p cand ~link ~expected =
  let got = Bcp.Mux.probe_required p ~link in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s: link %d reference" what link)
    (Mux_ref.required_with_naive ~lambda (Bcp.Mux.on_link m ~link) cand)
    got;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s: link %d value" what link)
    expected got;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s: link %d required_with" what link)
    (Bcp.Mux.required_with m ~link cand)
    got

(* Two live probes take turns on the stamp array, with registrations in
   between: each scan must count against its own candidate. *)
let test_interleaved_probes () =
  let m = Bcp.Mux.create (Net.Builders.ring ~nodes:4 ~capacity:100.0) ~lambda in
  Bcp.Mux.register m ~link:0 (solo ~bid:10 x);
  Bcp.Mux.register m ~link:1 (solo ~bid:11 y);
  let a = solo ~bid:1 x and b = solo ~bid:2 y in
  let pa = Bcp.Mux.probe m a and pb = Bcp.Mux.probe m b in
  check_probe m "A" pa a ~link:0 ~expected:2.0;
  Bcp.Mux.register m ~link:3 (solo ~bid:20 z);
  check_probe m "B after a register" pb b ~link:0 ~expected:1.0;
  check_probe m "A after B" pa a ~link:1 ~expected:1.0;
  Bcp.Mux.register m ~link:2 (solo ~bid:21 y);
  check_probe m "B after a register" pb b ~link:1 ~expected:2.0;
  check_probe m "A again" pa a ~link:0 ~expected:2.0;
  check_probe m "B on the new peer" pb b ~link:2 ~expected:2.0;
  Bcp.Mux.register m ~link:3 (solo ~bid:22 z);
  check_probe m "B right after a register" pb b ~link:1 ~expected:2.0

(* A registrant whose top encoding lies past every earlier one grows the
   stamp array between two scans of a live probe; the probe must stamp
   the new array before its next scan.  Runs in a fresh domain, whose
   stamp array starts empty. *)
let test_stamp_array_growth () =
  Domain.join
    (Domain.spawn (fun () ->
         let m =
           Bcp.Mux.create (Net.Builders.ring ~nodes:4 ~capacity:100.0) ~lambda
         in
         Bcp.Mux.register m ~link:0 (solo ~bid:10 x);
         Bcp.Mux.register m ~link:1 (solo ~bid:11 x);
         let a = solo ~bid:1 x in
         let pa = Bcp.Mux.probe m a in
         check_probe m "before growth" pa a ~link:0 ~expected:2.0;
         Bcp.Mux.register m ~link:2
           (solo ~bid:12 [| 50_000; 50_002; 50_004 |]);
         check_probe m "after growth" pa a ~link:1 ~expected:2.0))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mux_incremental"
    [
      ( "reference",
        qsuite
          [ prop_matches_reference; prop_probe_matches; prop_stamped_overlap ]
      );
      ( "units",
        [
          Alcotest.test_case "stamped fallbacks" `Quick test_stamped_fallbacks;
          Alcotest.test_case "descriptive lookup errors" `Quick
            test_descriptive_lookup_errors;
          Alcotest.test_case "bid recycling vs S-cache" `Quick
            test_bid_recycling_no_stale_cache;
          Alcotest.test_case "heap generation collision" `Quick
            test_heap_gen_collision;
          Alcotest.test_case "registrant stamps per call" `Quick
            test_registrant_stamps_per_call;
          Alcotest.test_case "requirement after removals" `Quick
            test_requirement_after_removals;
          Alcotest.test_case "interleaved probes" `Quick test_interleaved_probes;
          Alcotest.test_case "stamp array growth" `Quick test_stamp_array_growth;
        ] );
    ]
