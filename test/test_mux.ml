(* Tests for the backup-multiplexing engine (Section 3.2): Π/Ψ sets,
   spare sizing, incremental updates, degree-restricted conflicts. *)

let lambda = 1e-4

(* The cases use link 0 only.  A 64-node ring (128 simplex links)
   indexes encodings [0, 256), which covers every synthetic primary
   below, so each overlap is counted through the engine's primary index
   as on a real network. *)
let topo () = Net.Builders.ring ~nodes:64 ~capacity:100.0

(* Encoded component arrays for synthetic primaries.  Component k of
   "path family f" is unique across families unless explicitly shared. *)
let comps l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  a

let info ?(conn_offset = 0) ~backup ~nu ~bw cs =
  {
    Bcp.Mux.backup;
    conn = backup + conn_offset;
    serial = 1;
    nu;
    bw;
    primary_components = comps cs;
  }

let nu_of d = Reliability.Combinatorial.nu_of_degree ~lambda d

let test_encode_components () =
  let t = Net.Builders.line ~nodes:3 ~capacity:1.0 in
  let p = Net.Path.make t ~src:0 ~dst:2 ~links:[ 0; 2 ] in
  let enc = Bcp.Mux.encode_path t p in
  Alcotest.(check int) "c(M) = 2 hops + 1" 5 (Array.length enc);
  Alcotest.(check (array int)) "encodes the component set"
    (Array.of_list
       (List.sort Int.compare
          (List.map
             (function
               | Net.Component.Node v -> 2 * v
               | Net.Component.Link l -> (2 * l) + 1)
             (Net.Component.Set.elements (Net.Path.components t p)))))
    enc;
  (* Sorted and distinct *)
  let sorted = Array.copy enc in
  Array.sort Int.compare sorted;
  Alcotest.(check bool) "sorted" true (enc = sorted);
  Alcotest.(check int) "distinct" 5
    (List.length (List.sort_uniq Int.compare (Array.to_list enc)))

let test_shared_count () =
  Alcotest.(check int) "overlap" 2
    (Mux_ref.shared_count (comps [ 1; 3; 5; 7 ]) (comps [ 3; 4; 7; 9 ]));
  Alcotest.(check int) "disjoint" 0
    (Mux_ref.shared_count (comps [ 1; 2 ]) (comps [ 3; 4 ]));
  Alcotest.(check int) "identical" 3
    (Mux_ref.shared_count (comps [ 1; 2; 3 ]) (comps [ 1; 2; 3 ]))

let test_disjoint_primaries_multiplex () =
  (* Two backups whose primaries share nothing: S ≈ (cλ)² < ν = 1λ, so
     they share spare; requirement = max bw, not sum. *)
  let m = Bcp.Mux.create (topo ()) ~lambda in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 1) ~bw:1.0 [ 0; 2; 4 ]);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 1) ~bw:1.0 [ 10; 12; 14 ]);
  Alcotest.(check (float 1e-9)) "spare = 1" 1.0 (Bcp.Mux.spare_requirement m ~link:0);
  Alcotest.(check int) "pi empty" 0 (Mux_ref.pi_size m ~link:0 ~backup:1);
  Alcotest.(check int) "psi has the peer" 1 (Bcp.Mux.psi_size m ~link:0 ~backup:1)

let test_overlapping_primaries_conflict () =
  (* Primaries share 3 components; with ν = 1λ the pair must NOT be
     multiplexed: spare = sum of bandwidths. *)
  let m = Bcp.Mux.create (topo ()) ~lambda in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 1) ~bw:1.0 [ 0; 2; 4; 6; 8 ]);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 1) ~bw:1.0 [ 4; 6; 8; 10; 12 ]);
  Alcotest.(check (float 1e-9)) "spare = 2" 2.0 (Bcp.Mux.spare_requirement m ~link:0);
  Alcotest.(check int) "pi" 1 (Mux_ref.pi_size m ~link:0 ~backup:1);
  Alcotest.(check int) "psi" 0 (Bcp.Mux.psi_size m ~link:0 ~backup:1);
  Alcotest.(check (list int)) "conflict set" [ 2 ]
    (Mux_ref.conflict_set ~lambda m ~link:0 ~backup:1)

let test_degree_threshold_boundary () =
  (* sc = 3 shared components: S ≈ 3λ.  Multiplexed iff S < ν, so degree 3
     (ν = 3λ) conflicts but degree 4 (ν = 4λ) multiplexes. *)
  let reg degree =
    let m = Bcp.Mux.create (topo ()) ~lambda in
    Bcp.Mux.register m ~link:0
      (info ~backup:1 ~nu:(nu_of degree) ~bw:1.0 [ 0; 2; 4; 6; 8 ]);
    Bcp.Mux.register m ~link:0
      (info ~backup:2 ~nu:(nu_of degree) ~bw:1.0 [ 4; 6; 8; 10; 12 ]);
    Bcp.Mux.spare_requirement m ~link:0
  in
  Alcotest.(check (float 1e-9)) "degree 3 conflicts" 2.0 (reg 3);
  Alcotest.(check (float 1e-9)) "degree 4 multiplexes" 1.0 (reg 4)

let test_mux_zero_disables () =
  (* ν = 0: S > 0 always, so nothing multiplexes even when disjoint. *)
  let m = Bcp.Mux.create (topo ()) ~lambda in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:0.0 ~bw:1.0 [ 0; 2 ]);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:0.0 ~bw:1.0 [ 10; 12 ]);
  Bcp.Mux.register m ~link:0 (info ~backup:3 ~nu:0.0 ~bw:1.0 [ 20; 22 ]);
  Alcotest.(check (float 1e-9)) "spare = sum" 3.0 (Bcp.Mux.spare_requirement m ~link:0)

let test_same_conn_never_multiplexed () =
  (* Two backups of the same connection protect the same primary and are
     activated together: they must not share spare even though their
     primaries trivially "overlap fully" (S = full path failure < ν would
     not hold anyway, but the engine short-circuits on conn equality). *)
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let i1 = { (info ~backup:1 ~nu:(nu_of 50) ~bw:1.0 [ 0; 2 ]) with Bcp.Mux.conn = 7 } in
  let i2 = { (info ~backup:2 ~nu:(nu_of 50) ~bw:1.0 [ 0; 2 ]) with Bcp.Mux.conn = 7; serial = 2 } in
  Bcp.Mux.register m ~link:0 i1;
  Bcp.Mux.register m ~link:0 i2;
  Alcotest.(check (float 1e-9)) "spare = 2" 2.0 (Bcp.Mux.spare_requirement m ~link:0)

let test_degree_restriction_in_pi () =
  (* One low-ν (high-priority) backup and several high-ν backups whose
     primaries overlap with everyone: Π of the high-ν backup ignores the
     lower-ν one (Section 3.2 refinement), so the spare is driven by the
     high-ν group only when that group is larger. *)
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let shared = [ 0; 2; 4; 6; 8 ] in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 1) ~bw:1.0 shared);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 6) ~bw:1.0 shared);
  (* backup 2's Π considers only ν ≤ 6λ peers with S ≥ 6λ: backup 1 has
     ν = 1λ ≤ 6λ and S ≈ 5λ < 6λ, so it is multiplexable from 2's view. *)
  Alcotest.(check int) "pi of high-degree" 0 (Mux_ref.pi_size m ~link:0 ~backup:2);
  (* backup 1's Π considers only ν ≤ 1λ peers: backup 2 is out of scope. *)
  Alcotest.(check int) "pi of low-degree" 0 (Mux_ref.pi_size m ~link:0 ~backup:1);
  Alcotest.(check (float 1e-9)) "spare stays 1" 1.0
    (Bcp.Mux.spare_requirement m ~link:0)

let test_required_with_matches_register () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let existing =
    [
      info ~backup:1 ~nu:(nu_of 3) ~bw:1.0 [ 0; 2; 4; 6; 8 ];
      info ~backup:2 ~nu:(nu_of 3) ~bw:2.0 [ 4; 6; 8; 10; 12 ];
      info ~backup:3 ~nu:(nu_of 1) ~bw:1.5 [ 20; 22; 24 ];
    ]
  in
  List.iter (Bcp.Mux.register m ~link:0) existing;
  let candidate = info ~backup:9 ~nu:(nu_of 3) ~bw:1.0 [ 8; 10; 12; 30; 32 ] in
  let predicted =
    Bcp.Mux.probe_required (Bcp.Mux.probe m candidate) ~link:0
  in
  Bcp.Mux.register m ~link:0 candidate;
  Alcotest.(check (float 1e-9)) "what-if = actual" predicted
    (Bcp.Mux.spare_requirement m ~link:0)

let test_unregister_restores () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 1) ~bw:1.0 [ 0; 2; 4 ]);
  let before = Bcp.Mux.spare_requirement m ~link:0 in
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 1) ~bw:1.0 [ 0; 2; 4 ]);
  Alcotest.(check (float 1e-9)) "conflict raises spare" 2.0
    (Bcp.Mux.spare_requirement m ~link:0);
  Bcp.Mux.unregister m ~link:0 ~backup:2;
  Alcotest.(check (float 1e-9)) "restored" before (Bcp.Mux.spare_requirement m ~link:0);
  Alcotest.(check bool) "gone" false (Mux_ref.mem m ~link:0 ~backup:2);
  Alcotest.(check int) "count" 1 (Bcp.Mux.count_on m ~link:0);
  (* Unknown removal is a no-op. *)
  Bcp.Mux.unregister m ~link:0 ~backup:42

(* Removal decides Π membership by the rule, as registration did.  The
   victim (connection 1, ν = 3λ) sits among peers registered before and
   after it, of its own connection, of equal ν, and with primaries
   reaching the index's first and last encodings.  It leaves the Π of
   every peer it conflicts with; for every other peer it was in Ψ, which
   shrinks by one. *)
let test_unregister_by_rule () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let mk ~backup ~conn ~degree ~bw cs =
    { (info ~backup ~nu:(nu_of degree) ~bw cs) with Bcp.Mux.conn }
  in
  let victim = mk ~backup:10 ~conn:1 ~degree:3 ~bw:2.0 [ 0; 2; 4; 6; 8 ] in
  (* (peer, whether the victim is in its Π) *)
  let before =
    [
      (mk ~backup:1 ~conn:2 ~degree:3 ~bw:1.0 [ 0; 2; 4; 6; 10 ], true);
      (mk ~backup:2 ~conn:1 ~degree:6 ~bw:0.5 [ 20; 22; 24 ], true);
    ]
  and after =
    [
      (* lower ν: the victim is outside its Π despite a shared primary *)
      (mk ~backup:3 ~conn:3 ~degree:1 ~bw:1.5 [ 0; 2; 4; 6; 8 ], false);
      (mk ~backup:4 ~conn:4 ~degree:3 ~bw:1.0 [ 0; 2; 4; 6; 255 ], true);
      (mk ~backup:5 ~conn:5 ~degree:3 ~bw:3.0 [ 30; 32; 33 ], false);
      (mk ~backup:6 ~conn:1 ~degree:3 ~bw:0.5 [ 40; 41; 42 ], true);
      (mk ~backup:7 ~conn:7 ~degree:3 ~bw:1.0 [ 0; 1; 2; 4; 6 ], true);
      (* higher ν than the victim, S ≈ 4λ below it: outside its Π *)
      (mk ~backup:8 ~conn:8 ~degree:6 ~bw:0.5 [ 0; 2; 4; 6; 12 ], false);
    ]
  in
  let peers = before @ after in
  List.iter (fun (p, _) -> Bcp.Mux.register m ~link:0 p) before;
  Bcp.Mux.register m ~link:0 victim;
  List.iter (fun (p, _) -> Bcp.Mux.register m ~link:0 p) after;
  let psi (p : Bcp.Mux.backup_info) =
    Bcp.Mux.psi_size m ~link:0 ~backup:p.backup
  in
  let check_link what =
    List.iter
      (fun ((p : Bcp.Mux.backup_info), _) ->
        Alcotest.(check int)
          (Printf.sprintf "%s: psi of %d = rule" what p.backup)
          (Bcp.Mux.count_on m ~link:0
          - List.length
              (Mux_ref.conflict_set ~lambda m ~link:0 ~backup:p.backup)
          - 1)
          (psi p))
      peers;
    Alcotest.(check int64)
      (what ^ ": requirement = recompute")
      (Int64.bits_of_float (Mux_ref.requirement ~lambda m ~link:0))
      (Int64.bits_of_float (Bcp.Mux.spare_requirement m ~link:0))
  in
  check_link "registered";
  List.iter
    (fun ((p : Bcp.Mux.backup_info), in_pi) ->
      Alcotest.(check bool)
        (Printf.sprintf "victim in the Pi of %d" p.backup)
        in_pi
        (List.mem victim.backup
           (Mux_ref.conflict_set ~lambda m ~link:0 ~backup:p.backup)))
    peers;
  let psi_before = List.map (fun (p, _) -> psi p) peers in
  Bcp.Mux.unregister m ~link:0 ~backup:victim.backup;
  check_link "removed";
  List.iter2
    (fun ((p : Bcp.Mux.backup_info), in_pi) was ->
      Alcotest.(check int)
        (Printf.sprintf "psi of %d after the removal" p.backup)
        (if in_pi then was else was - 1)
        (psi p))
    peers psi_before

let test_register_duplicate_rejected () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let i = info ~backup:1 ~nu:(nu_of 1) ~bw:1.0 [ 0 ] in
  Bcp.Mux.register m ~link:0 i;
  Alcotest.(check bool) "duplicate" true
    (try Bcp.Mux.register m ~link:0 i; false with Invalid_argument _ -> true)

let test_psi_size_with () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 6) ~bw:1.0 [ 0; 2; 4 ]);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 6) ~bw:1.0 [ 10; 12; 14 ]);
  let candidate = info ~backup:9 ~nu:(nu_of 6) ~bw:1.0 [ 20; 22; 24 ] in
  (* Everything is mutually disjoint: the candidate would share with both. *)
  Alcotest.(check int) "psi with" 2
    (Mux_ref.psi_size_with ~lambda (Bcp.Mux.on_link m ~link:0) candidate);
  Bcp.Mux.register m ~link:0 candidate;
  Alcotest.(check int) "psi after" 2 (Bcp.Mux.psi_size m ~link:0 ~backup:9)

let test_max_requirement_victims () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let shared = [ 0; 2; 4; 6; 8 ] in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 1) ~bw:1.0 shared);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 1) ~bw:1.0 shared);
  Bcp.Mux.register m ~link:0 (info ~backup:3 ~nu:(nu_of 1) ~bw:1.0 [ 20; 22 ]);
  (* Backups 1 and 2 drive the requirement (2.0); backup 3 contributes 1. *)
  Alcotest.(check (list int)) "victims" [ 1; 2 ]
    (Bcp.Mux.max_requirement_victims m ~link:0)

let test_heterogeneous_bandwidths () =
  let m = Bcp.Mux.create (topo ()) ~lambda in
  let shared = [ 0; 2; 4; 6; 8 ] in
  Bcp.Mux.register m ~link:0 (info ~backup:1 ~nu:(nu_of 1) ~bw:5.0 shared);
  Bcp.Mux.register m ~link:0 (info ~backup:2 ~nu:(nu_of 1) ~bw:2.0 shared);
  Bcp.Mux.register m ~link:0 (info ~backup:3 ~nu:(nu_of 1) ~bw:10.0 [ 20; 22 ]);
  (* max(5+2, 2+5, 10) = 10 *)
  Alcotest.(check (float 1e-9)) "spare" 10.0 (Bcp.Mux.spare_requirement m ~link:0)

(* Property: spare requirement is between max bw and sum of bw, and never
   decreases when a backup is added. *)
let prop_spare_bounds =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 1 20)
          (pair (int_range 0 6) (int_range 0 5) (* degree, family *)))
  in
  QCheck.Test.make ~name:"spare requirement within [max bw, sum bw], monotone"
    ~count:100 gen
    (fun specs ->
      let m = Bcp.Mux.create (topo ()) ~lambda in
      let ok = ref true in
      List.iteri
        (fun i (degree, family) ->
          let cs = [ family * 10; (family * 10) + 2; (family * 10) + 4 ] in
          let before = Bcp.Mux.spare_requirement m ~link:0 in
          Bcp.Mux.register m ~link:0
            (info ~backup:i ~nu:(nu_of degree) ~bw:1.0 cs);
          let after = Bcp.Mux.spare_requirement m ~link:0 in
          if after < before -. 1e-9 then ok := false)
        specs;
      let n = List.length specs in
      let req = Bcp.Mux.spare_requirement m ~link:0 in
      !ok && req >= 1.0 -. 1e-9 && req <= float_of_int n +. 1e-9)

(* Property: for every registered backup, Π and Ψ partition the other
   backups on the link, and unregistering everything returns the table to
   a zero requirement. *)
let prop_pi_psi_partition =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_range 2 15)
          (pair (int_range 0 6) (int_range 0 4)))
  in
  QCheck.Test.make ~name:"Pi + Psi + self = all backups on link; removal resets"
    ~count:100 gen
    (fun specs ->
      let m = Bcp.Mux.create (topo ()) ~lambda in
      List.iteri
        (fun i (degree, family) ->
          Bcp.Mux.register m ~link:0
            (info ~backup:i ~nu:(nu_of degree) ~bw:1.0
               [ family * 10; (family * 10) + 2; (family * 10) + 4 ]))
        specs;
      let n = Bcp.Mux.count_on m ~link:0 in
      let partition_ok =
        List.for_all
          (fun i ->
            List.length (Mux_ref.conflict_set ~lambda m ~link:0 ~backup:i)
            + Bcp.Mux.psi_size m ~link:0 ~backup:i
            + 1
            = n)
          (List.init n (fun i -> i))
      in
      List.iteri (fun i _ -> Bcp.Mux.unregister m ~link:0 ~backup:i) specs;
      partition_ok
      && Bcp.Mux.count_on m ~link:0 = 0
      && Bcp.Mux.spare_requirement m ~link:0 = 0.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "mux"
    [
      ( "encoding",
        [
          Alcotest.test_case "encode components" `Quick test_encode_components;
          Alcotest.test_case "shared count" `Quick test_shared_count;
        ] );
      ( "multiplexing",
        [
          Alcotest.test_case "disjoint primaries share" `Quick
            test_disjoint_primaries_multiplex;
          Alcotest.test_case "overlap conflicts" `Quick
            test_overlapping_primaries_conflict;
          Alcotest.test_case "degree boundary" `Quick test_degree_threshold_boundary;
          Alcotest.test_case "mux=0 disables" `Quick test_mux_zero_disables;
          Alcotest.test_case "same conn never muxed" `Quick
            test_same_conn_never_multiplexed;
          Alcotest.test_case "degree restriction" `Quick test_degree_restriction_in_pi;
          Alcotest.test_case "heterogeneous bw" `Quick test_heterogeneous_bandwidths;
        ] );
      ( "bookkeeping",
        [
          Alcotest.test_case "what-if = actual" `Quick
            test_required_with_matches_register;
          Alcotest.test_case "unregister restores" `Quick test_unregister_restores;
          Alcotest.test_case "unregister by rule" `Quick test_unregister_by_rule;
          Alcotest.test_case "duplicate rejected" `Quick
            test_register_duplicate_rejected;
          Alcotest.test_case "psi_size_with" `Quick test_psi_size_with;
          Alcotest.test_case "max-requirement victims" `Quick
            test_max_requirement_victims;
        ] );
      qsuite "props" [ prop_spare_bounds; prop_pi_psi_partition ];
    ]
