(* Fuzz the multiplexing engine (overlap counts through the primary
   index, pow memo, requirement refreshed during the update walk) against
   the naive full-recompute reference in [Mux_ref]: after every register /
   unregister / probe the spare requirements and every live probe's
   answers must match, and after arbitrary register / unregister / probe
   sequences every observable — spare requirement, Ψ, the conflict sets
   [Mux.on_link] yields, admission what-ifs — must match the reference
   EXACTLY (bandwidths are dyadic rationals, so sums are
   order-independent and float equality is legitimate).  Ψ on the
   touched link is also checked after every removal, since removal
   decides Π membership by rule.  The overlap count the engine reads for
   a pair is recovered exactly from a probe's answer at two S thresholds
   and checked against [Mux.shared_count]; primaries with an encoding
   outside the index must be rejected by [register] and [probe]; unit
   cases pin the index's edge encodings, count reuse across interleaved
   probes and registrations, the requirement after removals and the one
   record the engine keeps per backup. *)

let lambda = 1e-4

let bandwidths = [| 0.5; 1.0; 1.5; 2.0; 3.0 |]

(* The fuzzed engines run on a 40-node ring (80 simplex links):
   encodings in [0, 160) are indexed, and ops use only its first few
   links, so tables stay crowded. *)
let ring40 () = Net.Builders.ring ~nodes:40 ~capacity:100.0

(* Component families over the indexed range: even encodings per family,
   odd encodings that only one family holds (low ones, and ones just past
   the families' even range), the last indexed encoding (159), which
   every family can share, and the first (0), which family 0 holds too. *)
let components_of ~family ~variant =
  let base = family * 10 in
  let cs =
    match variant mod 5 with
    | 0 -> [ base; base + 2; base + 4 ]
    | 1 -> [ base; base + 2; 61 + (2 * family) ]
    | 2 -> [ 1 + (2 * family); base + 2; base + 4 ]
    | 3 -> [ base + 2; base + 4; 159 ]
    | _ -> [ 0; base ]
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

(* The engine keeps one record per backup, shared by every link it is
   on: a registration of a bid already on some link reuses that record
   ([on_some_link] finds it), and one of a bid on no link draws a fresh
   record from the op. *)
let record_for ~on_some_link ~bid ~degree ~family ~variant ~bw_idx =
  match on_some_link bid with
  | Some info -> info
  | None -> info_of ~bid ~degree ~family ~variant ~bw_idx

(* [on_some_link] over a per-link model of registered records. *)
let in_model model bid =
  Hashtbl.fold
    (fun _ es found ->
      match found with
      | Some _ -> found
      | None ->
        List.find_opt (fun (e : Bcp.Mux.backup_info) -> e.backup = bid) es)
    model None

let pi_naive = Mux_ref.pi_naive ~lambda
let requirement_naive = Mux_ref.requirement_naive ~lambda
let required_with_naive = Mux_ref.required_with_naive ~lambda

(* ---------------- op sequences ---------------- *)

type op = {
  kind : int; (* 0,1: register; 2: unregister; 3: probe *)
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
  match Mux_ref.mismatch ~lambda m ~link with
  | None -> ()
  | Some (got, expected) ->
    QCheck.Test.fail_reportf
      "link %d: incremental requirement %.17g, reference %.17g" link got
      expected

(* Ψ of every backup in [es], the model of [link], against the rule. *)
let check_psi m ~link es =
  List.iter
    (fun (e : Bcp.Mux.backup_info) ->
      check_int
        (Printf.sprintf "psi_size link %d bid %d" link e.backup)
        (List.length es - List.length (pi_naive es e) - 1)
        (Bcp.Mux.psi_size m ~link ~backup:e.backup))
    es

let prop_matches_reference =
  QCheck.Test.make ~name:"incremental mux == naive full recompute" ~count:150
    arbitrary_ops (fun (nodes, ops) ->
      let nlinks = nodes in
      let m = Bcp.Mux.create (ring40 ()) ~lambda in
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
                record_for ~on_some_link:(in_model model) ~bid:o.bid
                  ~degree:o.degree ~family:o.family ~variant:o.variant
                  ~bw_idx:o.bw_idx
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
                 (entries link));
            (* each removal on its own: a later one cannot hide it *)
            check_psi m ~link (entries link)
          | _ ->
            let cand =
              info_of ~bid:(100 + o.bid) ~degree:o.degree ~family:o.family
                ~variant:o.variant ~bw_idx:o.bw_idx
            in
            check_exact
              (Printf.sprintf "probe_required link %d" link)
              (required_with_naive (entries link) cand)
              (Bcp.Mux.probe_required (Bcp.Mux.probe m cand) ~link))
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
          (Mux_ref.requirement ~lambda m ~link);
        check_int
          (Printf.sprintf "count link %d" link)
          (List.length es)
          (Bcp.Mux.count_on m ~link);
        check_psi m ~link es;
        List.iter
          (fun (e : Bcp.Mux.backup_info) ->
            let expected_set =
              List.sort_uniq Int.compare
                (List.map
                   (fun (b : Bcp.Mux.backup_info) -> b.backup)
                   (pi_naive es e))
            in
            if
              expected_set
              <> Mux_ref.conflict_set ~lambda m ~link ~backup:e.backup
            then
              QCheck.Test.fail_reportf "conflict_set link %d bid %d" link
                e.backup)
          es
      done;
      true)

(* One probe of a fresh candidate, held while the tables change, must
   answer like the naive recompute over the link's current backups. *)
let prop_probe_matches =
  QCheck.Test.make ~name:"probe == required_with across mutations"
    ~count:100 arbitrary_ops (fun (nodes, ops) ->
      let nlinks = nodes in
      let m = Bcp.Mux.create (ring40 ()) ~lambda in
      let cand = info_of ~bid:999 ~degree:3 ~family:2 ~variant:0 ~bw_idx:1 in
      let probe = Bcp.Mux.probe m cand in
      let audit () =
        for link = 0 to nlinks - 1 do
          let expected =
            required_with_naive (Bcp.Mux.on_link m ~link) cand
          in
          check_exact
            (Printf.sprintf "probe_required link %d" link)
            expected
            (Bcp.Mux.probe_required probe ~link);
          (* a repeated call reuses the counts and must not drift *)
          check_exact
            (Printf.sprintf "probe_required again link %d" link)
            expected
            (Bcp.Mux.probe_required probe ~link)
        done
      in
      let on_some_link bid =
        List.find_map
          (fun link ->
            List.find_opt
              (fun (e : Bcp.Mux.backup_info) -> e.backup = bid)
              (Bcp.Mux.on_link m ~link))
          (List.init nlinks Fun.id)
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
                (record_for ~on_some_link ~bid:o.bid ~degree:o.degree
                   ~family:o.family ~variant:o.variant ~bw_idx:o.bw_idx));
          (* the probe reads the tables as they are now *)
          audit ())
        (List.filteri (fun i _ -> i < 12) ops);
      true)

(* ---------------- overlap counts through the index ---------------- *)

(* S with the engine's expression, for any shared count (the reference
   [s_activation] rejects counts past the smaller array). *)
let s_expr ~c_i ~c_j ~sc =
  let p = 1.0 -. lambda in
  1.0
  -. ((p ** float_of_int c_i)
     +. (p ** float_of_int c_j)
     -. (p ** float_of_int (c_i + c_j - sc)))

(* Whether the overlap count the engine reads between candidate [cand]
   and the one backup on [link] (registered with ν = -∞ and bandwidth 1
   under another connection) is [k]: the peer is in the candidate's Π
   exactly when S(engine count) ≥ ν, which makes the candidate's own
   term, and so the probe's answer, 2 rather than 1; S grows strictly
   with the count, so the answers at the thresholds S(k) and S(k + 1)
   pin the count. *)
let engine_count_is m ~link ~peer_len cand k =
  let required nu =
    Bcp.Mux.probe_required ~link
      (Bcp.Mux.probe m
         {
           Bcp.Mux.backup = 1_000_000;
           conn = 1_000_000;
           serial = 1;
           nu;
           bw = 1.0;
           primary_components = cand;
         })
  in
  let c_i = Array.length cand and c_j = peer_len in
  required (s_expr ~c_i ~c_j ~sc:k) = 2.0
  && required (s_expr ~c_i ~c_j ~sc:(k + 1)) = 1.0

let peer_info ~bid ~conn comps =
  {
    Bcp.Mux.backup = bid;
    conn;
    serial = 1;
    nu = neg_infinity;
    bw = 1.0;
    primary_components = comps;
  }

(* A 64-node ring (128 simplex links): encodings in [0, 256)
   are indexed. *)
let ring64 () = Net.Builders.ring ~nodes:64 ~capacity:100.0

let sorted_arr g =
  QCheck.Gen.(
    map
      (fun l -> Array.of_list (List.sort_uniq Int.compare l))
      (list_size (int_range 0 24) g))

let print_arr a =
  "[" ^ String.concat ";" (List.map string_of_int (Array.to_list a)) ^ "]"

(* Encodings of the 64-node ring's index, with its first and last ones
   and those around multiples of 63 drawn more often. *)
let in_index =
  QCheck.Gen.(
    frequency
      [
        (1, oneofa [| 0; 1; 62; 63; 64; 126; 127; 128; 254; 255 |]);
        (6, int_range 0 255);
      ])

(* The engine's count equals the reference merge for every peer, with
   one array on two links under one backup id, an equal copy on a third
   under another (shared index entries), and again after some
   registrations leave and others take their links (entry refcounts and
   reused entry ids). *)
let prop_index_count =
  QCheck.Test.make ~name:"index count == shared_count" ~count:300
    (QCheck.make
       ~print:(fun (a, ps, drop) ->
         Printf.sprintf "cand %s peers %s drop %d" (print_arr a)
           (String.concat " " (List.map print_arr ps))
           drop)
       QCheck.Gen.(
         triple (sorted_arr in_index)
           (list_size (int_range 1 6) (sorted_arr in_index))
           (int_range 0 6)))
    (fun (cand, peers, drop) ->
      let m = Bcp.Mux.create (ring64 ()) ~lambda in
      let peers = Array.of_list peers in
      let n = Array.length peers in
      (* peer i on link i under backup id 10 + i; peer 0 (id 7) also on
         link n, registered right after link 0 (as on the links of one
         path), and an equal copy on link n + 1 under id 9, registered
         last *)
      let links =
        (0, peers.(0)) :: (n, peers.(0))
        :: List.init (n - 1) (fun i -> (i + 1, peers.(i + 1)))
        @ [ (n + 1, Array.copy peers.(0)) ]
      in
      let bid_on link =
        if link = 0 || link = n then 7
        else if link = n + 1 then 9
        else 10 + link
      in
      List.iter
        (fun (link, p) ->
          Bcp.Mux.register m ~link
            (peer_info ~bid:(bid_on link) ~conn:(100 + bid_on link) p))
        links;
      let check live =
        List.iter
          (fun (link, p) ->
            let k = Bcp.Mux.shared_count cand p in
            if not (engine_count_is m ~link ~peer_len:(Array.length p) cand k)
            then
              QCheck.Test.fail_reportf "link %d: engine count is not %d" link k)
          live
      in
      check links;
      (* the first [drop] registrations leave; each link they free takes a
         new array under a new id, which may reuse a freed entry *)
      let gone = List.filteri (fun i _ -> i < drop) links
      and kept = List.filteri (fun i _ -> i >= drop) links in
      List.iter
        (fun (link, _) -> Bcp.Mux.unregister m ~link ~backup:(bid_on link))
        gone;
      let again =
        List.map
          (fun (link, p) ->
            let n = Array.length p in
            (link, if n > 0 then Array.sub p 1 (n - 1) else [| 5 |]))
          gone
      in
      List.iter
        (fun (link, p) ->
          Bcp.Mux.register m ~link
            (peer_info ~bid:(200 + link) ~conn:(200 + link) p))
        again;
      check (kept @ again);
      true)

(* A primary with one encoding below or past the index is rejected by
   [register] and [probe], and the rejected call leaves the engine as it
   was: the link keeps its backups and requirement, and a probe of the
   array's indexed part still answers like the reference. *)
let prop_outside_rejected =
  let outside =
    QCheck.Gen.(
      frequency
        [
          (2, int_range (-5) (-1));
          (2, oneofa [| 256; 257; 65_535; 65_536 |]);
          (1, int_range 256 300);
        ])
  in
  QCheck.Test.make ~name:"encodings outside the index are rejected"
    ~count:200
    (QCheck.make
       ~print:(fun (a, bad, ps) ->
         Printf.sprintf "cand %s outside %d peers %s" (print_arr a) bad
           (String.concat " " (List.map print_arr ps)))
       QCheck.Gen.(
         triple (sorted_arr in_index) outside
           (list_size (int_range 0 4) (sorted_arr in_index))))
    (fun (a, bad, peers) ->
      let m = Bcp.Mux.create (ring64 ()) ~lambda in
      List.iteri
        (fun i p ->
          Bcp.Mux.register m ~link:0 (peer_info ~bid:i ~conn:(100 + i) p))
        peers;
      let before = Bcp.Mux.spare_requirement m ~link:0 in
      let with_bad =
        Array.of_list (List.sort_uniq Int.compare (bad :: Array.to_list a))
      in
      let raises f =
        match f () with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      if
        not
          (raises (fun () ->
               Bcp.Mux.register m ~link:0
                 (peer_info ~bid:50 ~conn:50 with_bad)))
      then QCheck.Test.fail_reportf "register accepted encoding %d" bad;
      if
        not
          (raises (fun () ->
               ignore (Bcp.Mux.probe m (peer_info ~bid:51 ~conn:51 with_bad))))
      then QCheck.Test.fail_reportf "probe accepted encoding %d" bad;
      check_int "count after the rejections" (List.length peers)
        (Bcp.Mux.count_on m ~link:0);
      check_exact "requirement after the rejections" before
        (Bcp.Mux.spare_requirement m ~link:0);
      let cand = { (peer_info ~bid:52 ~conn:52 a) with Bcp.Mux.nu = 1e-4 } in
      check_exact "probe of the indexed part"
        (required_with_naive (Bcp.Mux.on_link m ~link:0) cand)
        (Bcp.Mux.probe_required (Bcp.Mux.probe m cand) ~link:0);
      true)

(* ---------------- unit cases ---------------- *)

(* Edge encodings on a 64-node ring (indexed range [0, 256)), each count
   read back through the engine. *)
let test_index_count_edges () =
  let case what cand peer expected =
    let m = Bcp.Mux.create (ring64 ()) ~lambda in
    Bcp.Mux.register m ~link:0 (peer_info ~bid:1 ~conn:1 peer);
    Alcotest.(check int) (what ^ ": reference") expected
      (Bcp.Mux.shared_count cand peer);
    Alcotest.(check bool) what true
      (engine_count_is m ~link:0 ~peer_len:(Array.length peer) cand expected)
  in
  case "the first indexed encoding counts" [| 0; 3 |] [| 0; 5 |] 1;
  case "the last indexed encoding counts" [| 3; 255 |] [| 255 |] 1;
  case "both ends of the index" [| 0; 2; 255 |] [| 0; 3; 255 |] 2;
  case "empty candidate overlaps nothing" [||] [| 0; 1; 2 |] 0;
  case "empty peer overlaps nothing" [| 0; 1; 2 |] [||] 0;
  (* encodings around the 63-bit word boundaries of the former packed
     bitsets *)
  case "boundary overlap" [| 0; 62; 63; 125; 126 |] [| 62; 63; 64; 126 |] 3

let test_descriptive_lookup_errors () =
  let m = Bcp.Mux.create (Net.Builders.line ~nodes:2 ~capacity:10.0) ~lambda in
  let expect_msg f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument msg -> msg
  in
  Alcotest.(check string)
    "psi_size names link and backup" "Mux: backup 9 not on link 1"
    (expect_msg (fun () -> Bcp.Mux.psi_size m ~link:1 ~backup:9));
  (* two nodes, two links: encodings [0, 4) are indexed *)
  Alcotest.(check string)
    "register names the encoding"
    "Mux.register: encoding 4 outside the index [0, 4)"
    (expect_msg (fun () ->
         Bcp.Mux.register m ~link:0 (peer_info ~bid:1 ~conn:1 [| 0; 4 |])));
  Alcotest.(check string)
    "probe names the encoding"
    "Mux.probe: encoding -1 outside the index [0, 4)"
    (expect_msg (fun () ->
         Bcp.Mux.probe m (peer_info ~bid:1 ~conn:1 [| -1; 0 |])))

(* A backup id recycled with a different primary must be re-evaluated
   against its new primary, not the one it was first registered with. *)
let test_bid_recycling_no_stale_cache () =
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
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
      (Mux_ref.requirement ~lambda m ~link:0)
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
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
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
    (Mux_ref.requirement ~lambda m ~link)
    (Bcp.Mux.spare_requirement m ~link)

(* The registrant's counts belong to its own array: A on links 0 and 2
   with B registered in between, then A' (a fresh id, another primary) on
   link 3.  Each link holds a peer whose verdict flips if the registrant's
   counts are stale.  A 128-node ring indexes every encoding used. *)
let test_registrant_stamps_per_call () =
  let m =
    Bcp.Mux.create (Net.Builders.ring ~nodes:128 ~capacity:100.0) ~lambda
  in
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
      (Mux_ref.requirement ~lambda m ~link)
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
  step "A' on 3 (shares z)" ~link:3 (mk 3 z) ~expected:2.0;
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
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
  let link = 0 in
  let check what ~expected ~victims =
    let got = Bcp.Mux.spare_requirement m ~link in
    Alcotest.(check (float 0.0))
      (what ^ ": incremental = recompute")
      (Mux_ref.requirement ~lambda m ~link) got;
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

(* [probe_required] against the reference and the expected value. *)
let check_probe m what p cand ~link ~expected =
  let got = Bcp.Mux.probe_required p ~link in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s: link %d reference" what link)
    (Mux_ref.required_with_naive ~lambda (Bcp.Mux.on_link m ~link) cand)
    got;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "%s: link %d value" what link)
    expected got

(* Two live probes take turns on the count scratch, with registrations
   in between: each scan must count against its own candidate. *)
let test_interleaved_probes () =
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
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

(* Counts live in per-domain scratch.  The main domain counts for a
   candidate; then, in a fresh domain whose scratch starts empty, a probe
   of the same candidate array counts, and 40 registrations add entries
   (the scratch grows while the probe's counts stay current) whose
   arrays share one component with the candidate, which flips each
   verdict at degree 1; the probe's next scans must see them.  Back in
   the main domain, the first probe's counts predate those entries and
   must be retaken. *)
let test_count_in_fresh_domain () =
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
  let a = solo ~bid:1 x in
  Bcp.Mux.register m ~link:0 (solo ~bid:10 x);
  let pa = Bcp.Mux.probe m a in
  check_probe m "main domain" pa a ~link:0 ~expected:2.0;
  Domain.join
    (Domain.spawn (fun () ->
         let pb = Bcp.Mux.probe m a in
         check_probe m "before growth" pb a ~link:0 ~expected:2.0;
         for i = 1 to 40 do
           Bcp.Mux.register m ~link:(1 + (i mod 8))
             (solo ~bid:(100 + i) [| 0; 20 + (2 * i); 21 + (2 * i) |])
         done;
         for link = 1 to 8 do
           check_probe m "after growth" pb a ~link ~expected:6.0
         done));
  for link = 1 to 8 do
    check_probe m "main domain after growth" pa a ~link ~expected:6.0
  done

(* Counts belong to one engine: a candidate counted on one engine, then
   scanned on another that gained entries meanwhile, counts again. *)
let test_counts_follow_their_engine () =
  let m1 = Bcp.Mux.create (ring64 ()) ~lambda
  and m2 = Bcp.Mux.create (ring64 ()) ~lambda in
  let a = solo ~bid:1 x in
  Bcp.Mux.register m1 ~link:0 (solo ~bid:10 y);
  Bcp.Mux.register m2 ~link:0 (solo ~bid:10 y);
  let p1 = Bcp.Mux.probe m1 a and p2 = Bcp.Mux.probe m2 a in
  check_probe m1 "engine 1" p1 a ~link:0 ~expected:1.0;
  check_probe m2 "engine 2" p2 a ~link:0 ~expected:1.0;
  Bcp.Mux.register m1 ~link:1 (solo ~bid:11 z);
  Bcp.Mux.register m2 ~link:1 (solo ~bid:11 x);
  check_probe m1 "engine 1 after a register" p1 a ~link:1 ~expected:1.0;
  check_probe m2 "engine 2 after a register" p2 a ~link:1 ~expected:2.0

(* Register / unregister / probe sequences, checked against the
   reference after every step: every link's requirement, and every live
   probe's answer and O(1) ceiling on every link (at most four probes live at once, so
   their scans interleave with each other and with the updates). *)
let prop_sequence_matches_reference =
  QCheck.Test.make ~name:"register/unregister/probe == reference at every step"
    ~count:100 arbitrary_ops (fun (nodes, ops) ->
      let nlinks = nodes in
      let m = Bcp.Mux.create (ring40 ()) ~lambda in
      let model = Hashtbl.create 16 in
      let entries link =
        Option.value ~default:[] (Hashtbl.find_opt model link)
      in
      let probes = ref [] in
      let audit step =
        for link = 0 to nlinks - 1 do
          check_link m ~link;
          check_exact
            (Printf.sprintf "step %d: requirement link %d" step link)
            (requirement_naive (entries link))
            (Bcp.Mux.spare_requirement m ~link);
          List.iter
            (fun (cand, p) ->
              let what =
                Printf.sprintf "step %d: probe %d on link %d" step
                  cand.Bcp.Mux.backup link
              in
              let required = Bcp.Mux.probe_required p ~link in
              check_exact what (required_with_naive (entries link) cand)
                required;
              let ceiling = Bcp.Mux.probe_upper_bound p ~link in
              check_exact (what ^ " ceiling")
                (Mux_ref.upper_bound_naive ~lambda (entries link) cand)
                ceiling;
              if ceiling < required then
                QCheck.Test.fail_reportf "%s: ceiling %.17g below %.17g" what
                  ceiling required)
            !probes
        done
      in
      List.iteri
        (fun step o ->
          let link = o.link mod nlinks in
          let info =
            record_for ~on_some_link:(in_model model) ~bid:o.bid
              ~degree:o.degree ~family:o.family ~variant:o.variant
              ~bw_idx:o.bw_idx
          in
          (match o.kind with
          | 0 | 1 ->
            if not (Bcp.Mux.mem m ~link ~backup:o.bid) then begin
              Bcp.Mux.register m ~link info;
              Hashtbl.replace model link (entries link @ [ info ])
            end
          | 2 ->
            Bcp.Mux.unregister m ~link ~backup:o.bid;
            Hashtbl.replace model link
              (List.filter
                 (fun (e : Bcp.Mux.backup_info) -> e.backup <> o.bid)
                 (entries link))
          | _ ->
            let cand = { info with Bcp.Mux.backup = 100 + step } in
            probes :=
              (cand, Bcp.Mux.probe m cand)
              :: List.filteri (fun i _ -> i < 3) !probes);
          audit step)
        ops;
      true)

(* Which links hold each backup, and with which record: after every op,
   [Mux.mem] and [Mux.on_link] on every link agree with the model, for
   every bid the ops use, including bids that were registered on other
   links and bids that left every link and came back with a new record. *)
let prop_membership_matches_model =
  QCheck.Test.make ~name:"mem/on_link == model at every step" ~count:150
    arbitrary_ops (fun (nodes, ops) ->
      let nlinks = nodes in
      let m = Bcp.Mux.create (ring40 ()) ~lambda in
      let model = Hashtbl.create 16 in
      let entries link =
        Option.value ~default:[] (Hashtbl.find_opt model link)
      in
      let by_bid es =
        List.sort
          (fun (a : Bcp.Mux.backup_info) (b : Bcp.Mux.backup_info) ->
            Int.compare a.backup b.backup)
          es
      in
      let audit step =
        for link = 0 to nlinks - 1 do
          let es = entries link in
          for bid = 0 to 7 do
            let expected =
              List.exists (fun (e : Bcp.Mux.backup_info) -> e.backup = bid) es
            in
            if Bcp.Mux.mem m ~link ~backup:bid <> expected then
              QCheck.Test.fail_reportf "step %d: mem link %d bid %d is %b" step
                link bid (not expected)
          done;
          if by_bid (Bcp.Mux.on_link m ~link) <> by_bid es then
            QCheck.Test.fail_reportf
              "step %d: on_link %d differs from the model" step link
        done
      in
      List.iteri
        (fun step o ->
          let link = o.link mod nlinks in
          (match o.kind with
          | 0 | 1 | 3 ->
            if not (Bcp.Mux.mem m ~link ~backup:o.bid) then begin
              let info =
                record_for ~on_some_link:(in_model model) ~bid:o.bid
                  ~degree:o.degree ~family:o.family ~variant:o.variant
                  ~bw_idx:o.bw_idx
              in
              Bcp.Mux.register m ~link info;
              Hashtbl.replace model link (entries link @ [ info ])
            end
          | _ ->
            Bcp.Mux.unregister m ~link ~backup:o.bid;
            Hashtbl.replace model link
              (List.filter
                 (fun (e : Bcp.Mux.backup_info) -> e.backup <> o.bid)
                 (entries link)));
          audit step)
        ops;
      true)

(* One record per backup: a second link may take the backup only with
   the record it was registered with.  Another record, or the same link
   twice, raises and leaves the engine as it was; once the backup has
   left every link, its id may come back with a new record. *)
let test_one_record_per_backup () =
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  Bcp.Mux.register m ~link:0 (solo ~bid:10 x);
  Bcp.Mux.register m ~link:1 (solo ~bid:11 y);
  Bcp.Mux.register m ~link:0 (solo ~bid:1 x);
  raises "another primary" (fun () ->
      Bcp.Mux.register m ~link:1 (solo ~bid:1 y));
  raises "another bandwidth" (fun () ->
      Bcp.Mux.register m ~link:1 (solo ~bid:1 ~bw:2.0 x));
  raises "another connection" (fun () ->
      Bcp.Mux.register m ~link:1 { (solo ~bid:1 x) with Bcp.Mux.conn = 7 });
  raises "another ν" (fun () ->
      Bcp.Mux.register m ~link:1 { (solo ~bid:1 x) with Bcp.Mux.nu = 0.5 });
  raises "another serial" (fun () ->
      Bcp.Mux.register m ~link:1 { (solo ~bid:1 x) with Bcp.Mux.serial = 2 });
  raises "the same link twice" (fun () ->
      Bcp.Mux.register m ~link:0 (solo ~bid:1 x));
  Alcotest.(check (list int)) "link 1 untouched" [ 11 ]
    (List.map
       (fun (i : Bcp.Mux.backup_info) -> i.backup)
       (Bcp.Mux.on_link m ~link:1));
  Alcotest.(check (float 0.0)) "link 1 requirement untouched" 1.0
    (Bcp.Mux.spare_requirement m ~link:1);
  Alcotest.(check (float 0.0)) "link 0 requirement" 2.0
    (Bcp.Mux.spare_requirement m ~link:0);
  (* an equal copy of the record is the record *)
  Bcp.Mux.register m ~link:2 (solo ~bid:1 (Array.copy x));
  Alcotest.(check bool) "on link 2" true (Bcp.Mux.mem m ~link:2 ~backup:1);
  List.iter (fun link -> Bcp.Mux.unregister m ~link ~backup:1) [ 0; 2 ];
  Bcp.Mux.register m ~link:1 (solo ~bid:1 y);
  check_probe m "the id back with a new record"
    (Bcp.Mux.probe m (solo ~bid:2 y))
    (solo ~bid:2 y) ~link:1 ~expected:3.0;
  Alcotest.(check (float 0.0)) "link 0 after the id left" 1.0
    (Bcp.Mux.spare_requirement m ~link:0)

(* A primary's index entry is held by the backups registered with it, not
   by their slots: it stays while any of them is on some link and leaves
   with the last one.  Read through the entries a fresh count walks
   ([mux.index_walk]): each of [x]'s three components lists the one entry
   while it lives, and nothing once it is gone.  Probing [y] in between
   makes each probe of [x] count again. *)
let test_entry_leaves_with_last_backup () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Fun.protect ~finally:(fun () ->
      Sim.Prof.disable ();
      Sim.Prof.reset ())
  @@ fun () ->
  let m = Bcp.Mux.create (ring64 ()) ~lambda in
  let walked () =
    Option.value ~default:0
      (List.assoc_opt "mux.index_walk" (Sim.Prof.report ()).Sim.Prof.counters)
  in
  let walk_for_x what expected =
    ignore (Bcp.Mux.probe_required (Bcp.Mux.probe m (solo ~bid:9 y)) ~link:0);
    let before = walked () in
    ignore (Bcp.Mux.probe_required (Bcp.Mux.probe m (solo ~bid:8 x)) ~link:0);
    Alcotest.(check int) what expected (walked () - before)
  in
  List.iter (fun link -> Bcp.Mux.register m ~link (solo ~bid:1 x)) [ 0; 1; 2 ];
  Bcp.Mux.register m ~link:3 (solo ~bid:2 (Array.copy x));
  walk_for_x "one shared entry" 3;
  List.iter (fun link -> Bcp.Mux.unregister m ~link ~backup:1) [ 0; 1 ];
  walk_for_x "kept while backup 1 is on link 2" 3;
  Bcp.Mux.unregister m ~link:2 ~backup:1;
  walk_for_x "kept while backup 2 holds it" 3;
  Bcp.Mux.unregister m ~link:3 ~backup:2;
  walk_for_x "gone with the last backup" 0

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mux_incremental"
    [
      ( "reference",
        qsuite
          [
            prop_matches_reference;
            prop_probe_matches;
            prop_index_count;
            prop_outside_rejected;
            prop_sequence_matches_reference;
            prop_membership_matches_model;
          ]
      );
      ( "units",
        [
          Alcotest.test_case "index count edge cases" `Quick
            test_index_count_edges;
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
          Alcotest.test_case "count in a fresh domain" `Quick
            test_count_in_fresh_domain;
          Alcotest.test_case "counts follow their engine" `Quick
            test_counts_follow_their_engine;
          Alcotest.test_case "one record per backup" `Quick
            test_one_record_per_backup;
          Alcotest.test_case "entry leaves with the last backup" `Quick
            test_entry_leaves_with_last_backup;
        ] );
    ]
