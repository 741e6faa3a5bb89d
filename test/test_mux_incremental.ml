(* Fuzz the optimized multiplexing engine (bitset overlap, S-cache, pow
   memo, incremental max-heap spare accounting) against the naive
   full-recompute reference in [Mux_ref]: after every register /
   unregister the touched link's spare requirement must match, and after
   arbitrary register / unregister / required_with sequences on random
   topologies every observable — spare requirement, Π sizes, conflict
   sets, Ψ, admission what-ifs — must match the reference EXACTLY
   (bandwidths are dyadic rationals, so sums are order-independent and
   float equality is legitimate). *)

let lambda = 1e-4

let bandwidths = [| 0.5; 1.0; 1.5; 2.0; 3.0 |]

(* Component families: plain small encodings, encodings beyond the bitset
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

(* Probes must answer exactly like the unbatched required_with /
   psi_size_with, including after table mutations invalidate their memos. *)
let prop_probe_matches =
  QCheck.Test.make ~name:"probe == required_with/psi_size_with across mutations"
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
            (Bcp.Mux.probe_required probe ~link);
          check_int
            (Printf.sprintf "probe_psi_size link %d" link)
            (Bcp.Mux.psi_size_with m ~link cand)
            (Bcp.Mux.probe_psi_size probe ~link)
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

(* Bitset intersection counting agrees with the reference sorted-array
   merge whenever the encodings fit the bitset range. *)
let prop_bitset_overlap =
  let sorted_arr =
    QCheck.Gen.(
      map
        (fun l -> Array.of_list (List.sort_uniq Int.compare l))
        (list_size (int_range 0 40) (int_range 0 400)))
  in
  QCheck.Test.make ~name:"shared_count_bitset == shared_count" ~count:300
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "[%s] [%s]"
           (String.concat ";" (List.map string_of_int (Array.to_list a)))
           (String.concat ";" (List.map string_of_int (Array.to_list b))))
       (QCheck.Gen.pair sorted_arr sorted_arr))
    (fun (a, b) ->
      let ba = Option.get (Bcp.Mux.bitset_of_components a) in
      let bb = Option.get (Bcp.Mux.bitset_of_components b) in
      Bcp.Mux.shared_count_bitset ba bb = Bcp.Mux.shared_count a b)

(* ---------------- unit cases ---------------- *)

let test_bitset_fallbacks () =
  Alcotest.(check bool)
    "negative components have no bitset" true
    (Bcp.Mux.bitset_of_components [| -4; 2; 8 |] = None);
  Alcotest.(check bool)
    "out-of-range components have no bitset" true
    (Bcp.Mux.bitset_of_components [| 2; 70_000 |] = None);
  Alcotest.(check bool)
    "empty set packs to the empty bitset" true
    (Bcp.Mux.bitset_of_components [||] = Some [||]);
  (* word-boundary encodings (bit 62/63) must round-trip *)
  let a = [| 0; 62; 63; 125; 126 |] and b = [| 62; 63; 64; 126 |] in
  Alcotest.(check int)
    "boundary overlap" 3
    (Bcp.Mux.shared_count_bitset
       (Option.get (Bcp.Mux.bitset_of_components a))
       (Option.get (Bcp.Mux.bitset_of_components b)))

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

(* A backup id recycled with a different primary must not see a stale
   cached S-value (physical-equality guard on the component arrays). *)
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

(* Lazy-deletion heap generation collision: bury a big contribution under
   a bigger one, unregister it (stale heap item), re-register the same
   bid (generation counter resets), then remove the cover.  The stale
   item's generation matches the reborn bid's, so a buggy heap would
   report the dead 10.0 instead of the live 1.0. *)
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

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mux_incremental"
    [
      ( "reference",
        qsuite [ prop_matches_reference; prop_probe_matches; prop_bitset_overlap ]
      );
      ( "units",
        [
          Alcotest.test_case "bitset fallbacks" `Quick test_bitset_fallbacks;
          Alcotest.test_case "descriptive lookup errors" `Quick
            test_descriptive_lookup_errors;
          Alcotest.test_case "bid recycling vs S-cache" `Quick
            test_bid_recycling_no_stale_cache;
          Alcotest.test_case "heap generation collision" `Quick
            test_heap_gen_collision;
        ] );
    ]
