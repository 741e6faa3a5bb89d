(* CLI contract of `bcp_sim`: every numeric flag is range-checked at parse
   time (a bad value exits 2 before any set-up runs), and the output
   flags of the table commands write what the run printed. *)

let has_timeout = Sys.command "command -v timeout > /dev/null 2>&1" = 0

(* Exit code of one run, stdout to [out].  Under `timeout` where the host
   has it, so a flag check that regresses into a non-terminating run
   fails instead of hanging the suite. *)
let run ?(out = Filename.null) args =
  Sys.command
    (Printf.sprintf "%s%s %s > %s 2> %s"
       (if has_timeout then "timeout 60 " else "")
       (Filename.quote Cli.bcp_sim) args (Filename.quote out)
       (Filename.quote Filename.null))

let check_binary () =
  if not (Sys.file_exists Cli.bcp_sim) then
    Alcotest.failf "missing CLI binary %s" Cli.bcp_sim

(* One out-of-range value per numeric flag; test_churn's "cli exit codes"
   has --events, --offered, --jobs and --max-blocking.  Negative values
   use the [--flag=V] form, which cmdliner does not read as another
   option. *)
let out_of_range =
  [
    "recovery --scenarios=-1";
    "chaos --scenarios 0";
    "table1 --double-sample 0";
    "table1 --double-sample=-3";
    "table1 --network torus4 --backups=-1";
    "chaos --loss 1.5";
    "chaos --gray=-0.1";
    "chaos --horizon 0";
    "swarm --budget 0";
    "swarm --wall 0";
    "swarm --max-faults 0";
    "churn --holding 0";
    "churn --bandwidth inf";
    "churn --fault-every=-1";
    "churn --windows 0";
  ]

let test_out_of_range () =
  check_binary ();
  List.iter
    (fun args -> Alcotest.(check int) args 2 (run args))
    out_of_range

let with_temp suffix f =
  let path = Filename.temp_file "bcp_cli" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let read_json path =
  match Eval.Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s does not parse: %s" path e

let string_member key j =
  match Option.bind (Eval.Json.member key j) Eval.Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "no string member %S" key

(* The title of every text table on stdout: the line two above a rule of
   dashes. *)
let stdout_titles path =
  let lines = Array.of_list (In_channel.with_open_text path In_channel.input_lines) in
  let rule l =
    l <> "" && l.[0] = '-' && String.for_all (fun c -> c = '-' || c = ' ') l
  in
  List.filter_map Fun.id
    (List.init (Array.length lines) (fun i ->
         if i >= 2 && rule lines.(i) then Some lines.(i - 2) else None))

(* [--json] writes one bcp-report/v1 report per table printed, in order. *)
let check_report args =
  with_temp ".json" (fun json ->
      with_temp ".txt" (fun out ->
          Alcotest.(check int) (args ^ " exits 0") 0
            (run ~out (Printf.sprintf "%s --json %s" args (Filename.quote json)));
          let doc = read_json json in
          Alcotest.(check string) "schema" "bcp-report/v1"
            (string_member "schema" doc);
          let titles =
            match Eval.Json.member "reports" doc with
            | Some (Eval.Json.List reports) ->
              List.map (string_member "title") reports
            | _ -> Alcotest.fail "no reports list"
          in
          let printed = stdout_titles out in
          Alcotest.(check bool) (args ^ " prints tables") true (printed <> []);
          Alcotest.(check (list string)) (args ^ " report titles") printed titles))

let test_json_reports () =
  check_binary ();
  check_report "markov";
  check_report "recovery --network torus4 --scenarios 2 --metrics"

let test_prof_out () =
  check_binary ();
  with_temp ".json" (fun prof ->
      Alcotest.(check int) "fig8 --prof-out exits 0" 0
        (run
           (Printf.sprintf "fig8 --network torus4 --prof-out %s"
              (Filename.quote prof)));
      Alcotest.(check string) "schema" "bcp-prof/v1"
        (string_member "schema" (read_json prof)))

let () =
  Alcotest.run "cli"
    [
      ( "flags",
        [ Alcotest.test_case "out-of-range numbers exit 2" `Quick test_out_of_range ] );
      ( "outputs",
        [
          Alcotest.test_case "--json reports = printed tables" `Quick
            test_json_reports;
          Alcotest.test_case "--prof-out writes bcp-prof/v1" `Quick
            test_prof_out;
        ] );
    ]
