(* Tests for the steady-state churn engine: the Workload.Churn lifecycle
   driver and the Eval.Churn offered-load sweep. *)

let torus44 () = Net.Builders.torus ~rows:4 ~cols:4 ~capacity:50.0

(* The empirical arrival rate of a long admit-everything run must match
   the configured Poisson rate λ = offered × nodes / mean_holding. *)
let test_arrival_rate () =
  let topo = torus44 () in
  let params = Workload.Churn.make_params ~mean_holding:50.0 ~offered:4.0 () in
  let d = Workload.Churn.create ~seed:5 topo params in
  let lambda = Workload.Churn.arrival_rate d in
  Alcotest.(check (float 1e-9)) "lambda" (4.0 *. 16.0 /. 50.0) lambda;
  let arrivals = ref 0 in
  for _ = 1 to 20_000 do
    match Workload.Churn.next d with
    | Workload.Churn.Arrival { conn; _ } ->
      incr arrivals;
      Workload.Churn.admit d ~conn
    | Workload.Churn.Departure _ -> ()
  done;
  let empirical = float_of_int !arrivals /. Workload.Churn.now d in
  Alcotest.(check bool)
    (Printf.sprintf "empirical %.3f within 5%% of %.3f" empirical lambda)
    true
    (abs_float (empirical -. lambda) /. lambda < 0.05)

(* In steady state the active population hovers around offered × nodes
   (M/M/∞ would sit exactly there; here blocking can only pull it
   below).  A single end-of-run snapshot is ~√N noisy, so check the
   time average past a burn-in instead. *)
let test_steady_state_population () =
  let topo = torus44 () in
  let params = Workload.Churn.make_params ~mean_holding:20.0 ~offered:3.0 () in
  let d = Workload.Churn.create ~seed:7 topo params in
  let sum = ref 0 and samples = ref 0 in
  for i = 1 to 30_000 do
    (match Workload.Churn.next d with
    | Workload.Churn.Arrival { conn; _ } -> Workload.Churn.admit d ~conn
    | Workload.Churn.Departure _ -> ());
    if i > 5_000 then begin
      sum := !sum + Workload.Churn.active d;
      incr samples
    end
  done;
  let expected = 3.0 *. 16.0 in
  let mean = float_of_int !sum /. float_of_int !samples in
  Alcotest.(check bool)
    (Printf.sprintf "mean active %.1f within 10%% of %.0f" mean expected)
    true
    (abs_float (mean -. expected) /. expected < 0.10)

(* Blocking probability must be monotone in offered load, zero at the
   bottom of the tuned ladder and strictly positive at the top. *)
let test_blocking_monotone () =
  let outcomes =
    Eval.Churn.run ~seed:3 ~events:4000
      ~offered:[ 4.0; 10.0; 24.0 ]
      ~bandwidth:4.0 Eval.Setup.Torus4
  in
  let blocking =
    List.map (fun (o : Eval.Churn.outcome) -> o.Eval.Churn.blocking) outcomes
  in
  (match blocking with
  | [ b1; b2; b3 ] ->
    Alcotest.(check bool) "monotone" true (b1 <= b2 && b2 <= b3);
    Alcotest.(check bool) "top rung blocks" true (b3 > 0.0)
  | _ -> Alcotest.fail "expected three cells");
  List.iter
    (fun (o : Eval.Churn.outcome) ->
      Alcotest.(check int) "full event budget" 4000 o.Eval.Churn.events;
      Alcotest.(check int) "arrivals = admitted + blocked"
        o.Eval.Churn.arrivals
        (o.Eval.Churn.admitted + o.Eval.Churn.blocked))
    outcomes

(* Sweeps must not depend on the domain count: outcomes and the emitted
   JSON are identical between --jobs 1 and --jobs 2. *)
let test_jobs_identity () =
  let run jobs =
    Sim.Pool.set_jobs jobs;
    Eval.Churn.run ~seed:9 ~events:2000
      ~offered:[ 2.0; 4.0 ]
      ~bandwidth:4.0 ~fault_every:30.0 Eval.Setup.Torus4
  in
  let serial = run 1 in
  let parallel = run 2 in
  Sim.Pool.set_jobs 1;
  Alcotest.(check bool) "outcomes identical" true (serial = parallel);
  let render outcomes =
    Eval.Json.to_string
      (Eval.Churn.report_to_json ~seed:9 ~events:2000 ~fault_every:30.0
         ~horizon:0.25 ~detector:`Oracle ~network:Eval.Setup.Torus4 outcomes)
  in
  Alcotest.(check string) "JSON identical" (render serial) (render parallel)

(* Fault episodes interleaved with churn must audit green and recover
   what they disrupt. *)
let test_fault_episodes_green () =
  let outcomes =
    Eval.Churn.run ~seed:13 ~events:3000 ~offered:[ 4.0 ] ~bandwidth:4.0
      ~fault_every:20.0 Eval.Setup.Torus4
  in
  let o = List.hd outcomes in
  Alcotest.(check int) "no violations" 0
    (Eval.Churn.total_violations outcomes);
  Alcotest.(check bool) "episodes ran" true (o.Eval.Churn.episodes > 0);
  Alcotest.(check bool) "connections affected" true
    (o.Eval.Churn.affected > 0);
  Alcotest.(check bool) "recoveries happened" true
    (o.Eval.Churn.recovered > 0)

(* After a full drain every resource the churn admitted must be handed
   back: no dconns, empty mux tables (Π/Ψ), per-link free capacity byte
   for byte where it started. *)
let test_drain_returns_everything () =
  let topo = torus44 () in
  let ns = Bcp.Netstate.create topo () in
  let res = Bcp.Netstate.resources ns in
  let mux = Bcp.Netstate.mux ns in
  let links = Net.Topology.num_links topo in
  let free0 = Array.init links (fun l -> Rtchan.Resource.free res l) in
  let params =
    Workload.Churn.make_params ~mean_holding:20.0 ~bandwidth:4.0 ~mux_degree:3
      ~offered:6.0 ()
  in
  let d = Workload.Churn.create ~seed:11 topo params in
  let admitted = ref 0 in
  for _ = 1 to 3_000 do
    match Workload.Churn.next d with
    | Workload.Churn.Arrival { conn; request; _ } -> (
      match Bcp.Establish.establish ns ~conn_id:conn request with
      | Ok _ ->
        incr admitted;
        Workload.Churn.admit d ~conn
      | Error _ -> ())
    | Workload.Churn.Departure { conn; _ } ->
      Bcp.Netstate.remove_dconn ns conn
  done;
  Alcotest.(check bool) "something was admitted" true (!admitted > 0);
  Alcotest.(check bool) "still active before drain" true
    (Workload.Churn.active d > 0);
  let rec wind_down () =
    match Workload.Churn.drain d with
    | Some (Workload.Churn.Departure { conn; _ }) ->
      Bcp.Netstate.remove_dconn ns conn;
      wind_down ()
    | Some (Workload.Churn.Arrival _) ->
      Alcotest.fail "drain must not emit arrivals"
    | None -> ()
  in
  wind_down ();
  Alcotest.(check int) "no active connections" 0 (Workload.Churn.active d);
  Alcotest.(check int) "no dconns" 0 (List.length (Bcp.Netstate.dconns ns));
  let mux_entries = ref 0 in
  for l = 0 to links - 1 do
    mux_entries := !mux_entries + Bcp.Mux.count_on mux ~link:l
  done;
  Alcotest.(check int) "mux tables empty" 0 !mux_entries;
  for l = 0 to links - 1 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "link %d free capacity restored" l)
      free0.(l)
      (Rtchan.Resource.free res l)
  done

(* Bad parameters are rejected eagerly. *)
let test_param_validation () =
  Alcotest.check_raises "offered must be > 0"
    (Invalid_argument "Churn.make_params: offered must be > 0") (fun () ->
      ignore (Workload.Churn.make_params ~offered:0.0 ()));
  Alcotest.check_raises "mean_holding must be > 0"
    (Invalid_argument "Churn.make_params: mean_holding must be > 0") (fun () ->
      ignore (Workload.Churn.make_params ~mean_holding:0.0 ~offered:2.0 ()));
  (match Eval.Churn.run ~offered:[] Eval.Setup.Torus4 with
  | _ -> Alcotest.fail "empty ladder must raise"
  | exception Invalid_argument _ -> ())

(* CLI contract of `bcp_sim churn`: usage errors exit 2, a tripped
   --max-blocking gate exits 1, a healthy seeded run exits 0. *)

let run_cli args =
  Sys.command
    (Filename.quote Cli.bcp_sim ^ " " ^ args ^ " > "
    ^ Filename.quote Filename.null)

(* A file under a directory that does not exist. *)
let unwritable name =
  Filename.quote
    (Filename.concat (Filename.concat "no-such-dir" "for-bcp-sim") name)

let test_cli_exit_codes () =
  if not (Sys.file_exists Cli.bcp_sim) then
    Alcotest.fail (Printf.sprintf "missing CLI binary %s" Cli.bcp_sim);
  Alcotest.(check int) "healthy run exits 0" 0
    (run_cli
       "churn --seed 7 --network torus4 --events 1000 --offered 2 --jobs 2");
  Alcotest.(check int) "--events 0 exits 2" 2 (run_cli "churn --events 0");
  Alcotest.(check int) "--offered 0 exits 2" 2 (run_cli "churn --offered 0,2");
  Alcotest.(check int) "--jobs 0 exits 2" 2 (run_cli "churn --jobs 0");
  Alcotest.(check int) "--max-blocking 101 exits 2" 2
    (run_cli "churn --max-blocking 101");
  Alcotest.(check int) "tripped blocking gate exits 1" 1
    (run_cli
       "churn --seed 7 --network torus4 --events 2000 --offered 24 \
        --bandwidth 4 --max-blocking 1");
  (* Every file the CLI writes fails cleanly on an unwritable path. *)
  Alcotest.(check int) "unwritable --json exits 2" 2
    (run_cli
       ("churn --network torus4 --events 200 --offered 2 --json "
       ^ unwritable "churn.json"));
  Alcotest.(check int) "unwritable --trace-out exits 2" 2
    (run_cli
       ("chaos --network torus4 --scenarios 1 --trace-out "
       ^ unwritable "chaos.jsonl"));
  Alcotest.(check int) "unwritable --prof-out exits 2" 2
    (run_cli
       ("recovery --network torus4 --scenarios 1 --prof-out "
       ^ unwritable "prof.json"))

let () =
  Alcotest.run "churn"
    [
      ( "driver",
        [
          Alcotest.test_case "arrival rate" `Quick test_arrival_rate;
          Alcotest.test_case "steady-state population" `Quick
            test_steady_state_population;
          Alcotest.test_case "drain returns everything" `Quick
            test_drain_returns_everything;
          Alcotest.test_case "param validation" `Quick test_param_validation;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "blocking monotone" `Slow test_blocking_monotone;
          Alcotest.test_case "jobs identity" `Slow test_jobs_identity;
          Alcotest.test_case "fault episodes green" `Slow
            test_fault_episodes_green;
        ] );
      ( "cli",
        [ Alcotest.test_case "exit codes" `Slow test_cli_exit_codes ] );
    ]
