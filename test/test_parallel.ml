(* Tests for the domain pool and the determinism contract of the
   parallel evaluation layer: for every eval module routed through
   Sim.Pool, the rendered report must be byte-identical whatever the
   job count. *)

(* ---------- Pool unit tests ---------- *)

(* Run [f] with the global pool at [jobs] domains, back to 1 after. *)
let with_jobs jobs f =
  Sim.Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Sim.Pool.set_jobs 1) f

let test_pool_ordering () =
  with_jobs 4 (fun () ->
      let xs = List.init 100 Fun.id in
      let ys = Sim.Pool.map (fun x -> x * x) xs in
      Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * x) xs) ys;
      let strs = List.init 37 string_of_int in
      Alcotest.(check (list string)) "strings in order"
        (List.map (fun s -> s ^ "!") strs)
        (Sim.Pool.map (fun s -> s ^ "!") strs))

let test_pool_exception () =
  with_jobs 3 (fun () ->
      (* The exception of the lowest-index failing task is re-raised,
         wrapped so the failing task index (and the worker that ran it)
         survive into the report. *)
      match
        Sim.Pool.map
          (fun x -> if x mod 4 = 3 then failwith (string_of_int x) else x)
          (List.init 32 Fun.id)
      with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception Sim.Pool.Task_failed { worker; task; error } ->
        Alcotest.(check int) "lowest task index" 3 task;
        Alcotest.(check bool) "worker index in range" true (worker >= -1);
        (match error with
        | Failure msg -> Alcotest.(check string) "payload" "3" msg
        | e -> Alcotest.fail ("unexpected payload: " ^ Printexc.to_string e)))

let test_pool_reuse () =
  (* The same pool must serve many consecutive maps (domains are reused,
     not respawned), including empty and singleton inputs. *)
  with_jobs 4 (fun () ->
      for round = 1 to 50 do
        let xs = List.init (round mod 7) (fun i -> i + round) in
        let ys = Sim.Pool.map (fun x -> x + 1) xs in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map (fun x -> x + 1) xs)
          ys
      done)

let test_pool_reentrant () =
  (* A map inside a task must not deadlock: it runs inline, on the
     calling domain (worker -1 in a failure report). *)
  with_jobs 2 (fun () ->
      let ys =
        Sim.Pool.map
          (fun x ->
            List.fold_left ( + ) 0 (Sim.Pool.map (fun y -> x * y) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int)) "nested map" [ 6; 12; 18; 24 ] ys;
      match
        Sim.Pool.map
          (fun x -> Sim.Pool.map (fun _ -> failwith "inner") [ x ])
          [ 1; 2 ]
      with
      | _ -> Alcotest.fail "expected Task_failed"
      | exception
          Sim.Pool.Task_failed { error = Sim.Pool.Task_failed { worker; _ }; _ }
        ->
        Alcotest.(check int) "nested task ran inline" (-1) worker)

let test_pool_validation () =
  Alcotest.(check bool) "set_jobs 0 rejected" true
    (try
       Sim.Pool.set_jobs 0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "jobs unchanged" 1 (Sim.Pool.current_jobs ())

let test_prng_derive () =
  let a = Sim.Prng.derive ~seed:42 ~index:0 in
  let b = Sim.Prng.derive ~seed:42 ~index:1 in
  let c = Sim.Prng.derive ~seed:43 ~index:0 in
  Alcotest.(check bool) "distinct across index" true (a <> b);
  Alcotest.(check bool) "distinct across seed" true (a <> c);
  Alcotest.(check int) "deterministic" a (Sim.Prng.derive ~seed:42 ~index:0);
  Alcotest.(check bool) "non-negative" true (a >= 0 && b >= 0 && c >= 0);
  Alcotest.(check bool) "negative index rejected" true
    (try
       ignore (Sim.Prng.derive ~seed:1 ~index:(-1));
       false
     with Invalid_argument _ -> true)

(* ---------- Serial vs parallel byte-identity ---------- *)

(* Render [mk ()] under the global pool at 1 and 4 jobs and require the
   outputs to be byte-identical.  Resets the global pool to 1 job. *)
let check_identical name mk =
  let render () = Eval.Report.render (mk ()) in
  Sim.Pool.set_jobs 1;
  let serial = render () in
  Sim.Pool.set_jobs 4;
  let parallel =
    Fun.protect ~finally:(fun () -> Sim.Pool.set_jobs 1) render
  in
  Alcotest.(check string) name serial parallel

let test_spare_bw_identical () =
  List.iter
    (fun seed ->
      check_identical
        (Printf.sprintf "spare_bw seed %d" seed)
        (fun () ->
          Eval.Spare_bw.report Eval.Setup.Torus4 ~backups:1
            (Eval.Spare_bw.run ~seed Eval.Setup.Torus4 ~backups:1)))
    [ 42; 7 ]

let test_rfast_identical () =
  List.iter
    (fun seed ->
      check_identical
        (Printf.sprintf "rfast seed %d" seed)
        (fun () ->
          Eval.Rfast.table_same_degree ~seed Eval.Setup.Torus4 ~backups:1))
    [ 42; 7 ]

let test_chaos_identical () =
  List.iter
    (fun seed ->
      check_identical
        (Printf.sprintf "chaos seed %d" seed)
        (fun () ->
          Eval.Chaos.sweep ~seed ~scenario_count:3 ~detector:`Oracle
            Eval.Setup.Torus4))
    [ 42; 7 ]

let test_multi_failure_identical () =
  check_identical "multi_failure seed 42" (fun () ->
      Eval.Multi_failure.sweep ~seed:42 Eval.Setup.Torus4)

let test_recovery_delay_identical () =
  check_identical "recovery_delay seed 42" (fun () ->
      let est =
        Eval.Setup.build ~seed:42 ~backups:1 ~mux_degree:3 Eval.Setup.Torus4
      in
      Eval.Recovery_delay.report
        [ Eval.Recovery_delay.measure ~seed:42 ~scenario_count:4
            est.Eval.Setup.ns ])

let test_message_loss_identical () =
  check_identical "message_loss seed 42" (fun () ->
      Eval.Message_loss.report (Eval.Message_loss.run ~seed:42 Eval.Setup.Torus4))

(* ---------- JSON round-trip ---------- *)

let test_json_roundtrip () =
  let doc =
    Eval.Json.Obj
      [
        ("s", Eval.Json.String "a\"b\\c\nd");
        ("i", Eval.Json.Int (-42));
        ("f", Eval.Json.Float 3.25);
        ("b", Eval.Json.Bool true);
        ("n", Eval.Json.Null);
        ( "l",
          Eval.Json.List [ Eval.Json.Int 1; Eval.Json.Obj []; Eval.Json.List [] ]
        );
      ]
  in
  List.iter
    (fun indent ->
      match Eval.Json.of_string (Eval.Json.to_string ?indent doc) with
      | Ok v -> Alcotest.(check bool) "round-trip" true (v = doc)
      | Error msg -> Alcotest.fail msg)
    [ None; Some 2 ];
  (match Eval.Json.of_string "{\"a\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match Eval.Json.of_string "[1, 2," with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated input accepted"

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "reentrant" `Quick test_pool_reentrant;
          Alcotest.test_case "validation" `Quick test_pool_validation;
          Alcotest.test_case "prng derive" `Quick test_prng_derive;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "spare_bw" `Quick test_spare_bw_identical;
          Alcotest.test_case "rfast" `Quick test_rfast_identical;
          Alcotest.test_case "chaos" `Quick test_chaos_identical;
          Alcotest.test_case "multi_failure" `Quick test_multi_failure_identical;
          Alcotest.test_case "recovery_delay" `Quick
            test_recovery_delay_identical;
          Alcotest.test_case "message_loss" `Quick test_message_loss_identical;
        ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ] );
    ]
