(* bcp_sim: regenerate every table and figure of Han & Shin, SIGCOMM '97,
   plus the ablations documented in DESIGN.md. *)

open Cmdliner

(* [Eval.Setup.names] is the single source of truth for [--network]
   spellings; "torus"/"mesh" stay as aliases for the paper's 8x8
   networks.  An unknown name is a usage error (exit code 2) whose
   message lists every accepted spelling. *)
let network_conv =
  let accepted =
    "torus|mesh|" ^ String.concat "|" (List.map fst Eval.Setup.names)
  in
  let parse = function
    | "torus" -> Ok Eval.Setup.Torus8
    | "mesh" -> Ok Eval.Setup.Mesh8
    | s -> (
      match Eval.Setup.of_name s with
      | Some n -> Ok n
      | None ->
        Error (`Msg (Printf.sprintf "unknown network %S (%s)" s accepted)))
  in
  let print ppf n =
    Format.pp_print_string ppf
      (match n with
      | Eval.Setup.Torus8 -> "torus"
      | Eval.Setup.Mesh8 -> "mesh"
      | n ->
        fst (List.find (fun (_, n') -> n' = n) Eval.Setup.names))
  in
  Arg.conv (parse, print)

let network_arg =
  Arg.(
    value
    & opt network_conv Eval.Setup.Torus8
    & info [ "network"; "n" ] ~docv:"NET"
        ~doc:
          "Network: torus or mesh (8x8), torus4 or mesh4 (reduced 4x4), \
           torus16 or mesh16 (large-network scaling tier), torus64 or \
           mesh64 (4096-node flat-state benchmark ladder).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let backups_arg =
  Arg.(
    value & opt int 1
    & info [ "backups"; "b" ] ~docv:"N" ~doc:"Backup channels per connection.")

let double_sample_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "double-sample" ] ~docv:"N"
        ~doc:"Sample N double-node scenarios instead of all pairs.")

let csv_arg =
  Arg.(
    value & flag
    & info [ "csv" ] ~doc:"Emit the table as CSV instead of aligned text.")

(* [--jobs 0] and negative values are rejected at parse time, so they
   surface as a usage error (exit code 2), never a raw exception. *)
let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
    | Some n when n < 1 ->
      Error (`Msg (Printf.sprintf "--jobs must be >= 1 (got %d)" n))
    | Some n -> Ok n
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt jobs_conv 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run scenario sweeps on N domains. Reports are byte-identical \
           for every N.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write every emitted table to FILE as JSON.")

let prof_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prof-out" ] ~docv:"FILE"
        ~doc:
          "Profile the run with the engine span profiler and write the \
           span/counter/GC report to FILE (schema bcp-prof/v1), plus a \
           hot-span table on stderr. Chrome traces written by --trace-out \
           then carry the engine spans on the same timeline. Profiling \
           never perturbs simulation results.")

(* Every file the CLI writes goes through [write_file]: an unwritable
   path is a clean error (exit code 2), not an uncaught exception at the
   end of the run. *)
let or_cannot_write path f = Eval.Json.or_cannot_write ~prog:"bcp_sim" path f
let write_file path write = Eval.Json.write_file ~prog:"bcp_sim" path write

let write_json_file path doc =
  write_file path (fun oc ->
      Eval.Json.output ~indent:2 oc doc;
      output_char oc '\n')

let prof_finish = function
  | None -> ()
  | Some path ->
    let report = Sim.Prof.report () in
    Sim.Prof.print_top Format.err_formatter;
    write_json_file path (Eval.Telemetry.prof_to_json report);
    Printf.printf "wrote profile to %s\n" path

(* Output context shared by every subcommand: rendering mode, optional
   JSON sink, and the profile path.  [extra] holds additional top-level
   JSON sections (e.g. telemetry) — empty for every command that
   predates it, so their JSON output is unchanged. *)
type ctx = {
  csv : bool;
  json : string option;
  collected : Eval.Report.t list ref;
  extra : (string * Eval.Json.t) list ref;
  prof_out : string option;
}

(* --jobs and --prof-out, taken by every subcommand: size the domain
   pool and switch the profiler on before the body runs.  Commands with
   their own JSON schema (audit, swarm, churn) print tables plainly. *)
let plain_ctx_term =
  Term.(
    const (fun jobs prof_out ->
        Sim.Pool.set_jobs jobs;
        if prof_out <> None then Sim.Prof.enable ();
        {
          csv = false;
          json = None;
          collected = ref [];
          extra = ref [];
          prof_out;
        })
    $ jobs_arg $ prof_out_arg)

let ctx_term =
  Term.(
    const (fun csv json ctx -> { ctx with csv; json })
    $ csv_arg $ json_arg $ plain_ctx_term)

let emit ctx report =
  ctx.collected := report :: !(ctx.collected);
  if ctx.csv then print_string (Eval.Report.to_csv report)
  else Eval.Report.print report

let write_json ctx =
  match ctx.json with
  | None -> ()
  | Some path ->
    let doc =
      Eval.Json.Obj
        ([
           ("schema", Eval.Json.String "bcp-report/v1");
           ("jobs", Eval.Json.Int (Sim.Pool.current_jobs ()));
           ( "reports",
             Eval.Json.List
               (List.rev_map Eval.Report.to_json !(ctx.collected)) );
         ]
        @ List.rev !(ctx.extra))
    in
    write_json_file path doc

(* Run a subcommand body, then flush the JSON sink and the profile
   report if requested. *)
let finishing ctx body =
  let result = body () in
  write_json ctx;
  prof_finish ctx.prof_out;
  result

let scenario_count_arg =
  Arg.(
    value & opt int 16
    & info [ "scenarios" ] ~docv:"N" ~doc:"Failure scenarios to simulate.")

let run_fig9 ctx network backups seed =
  let series = Eval.Spare_bw.run ~seed network ~backups in
  emit ctx (Eval.Spare_bw.report network ~backups series)

let fig9_cmd =
  let doc = "Figure 9: spare bandwidth vs network load." in
  Cmd.v
    (Cmd.info "fig9" ~doc)
    Term.(
      const (fun ctx n b s -> finishing ctx (fun () -> run_fig9 ctx n b s))
      $ ctx_term $ network_arg $ backups_arg $ seed_arg)

let run_table1 ctx network backups seed double_sample =
  emit ctx (Eval.Rfast.table_same_degree ~seed ?double_sample network ~backups)

let table1_cmd =
  let doc = "Table 1: R_fast with uniform multiplexing degrees." in
  Cmd.v
    (Cmd.info "table1" ~doc)
    Term.(
      const (fun ctx n b s d ->
          finishing ctx (fun () -> run_table1 ctx n b s d))
      $ ctx_term $ network_arg $ backups_arg $ seed_arg $ double_sample_arg)

let run_table2 ctx network backups seed double_sample =
  emit ctx (Eval.Rfast.table_mixed_degrees ~seed ?double_sample network ~backups)

let table2_cmd =
  let doc = "Table 2: R_fast with mixed multiplexing degrees." in
  Cmd.v
    (Cmd.info "table2" ~doc)
    Term.(
      const (fun ctx n b s d ->
          finishing ctx (fun () -> run_table2 ctx n b s d))
      $ ctx_term $ network_arg $ backups_arg $ seed_arg $ double_sample_arg)

let run_table3 ctx network seed double_sample =
  emit ctx (Eval.Rfast.table_brute_force ~seed ?double_sample network)

let table3_cmd =
  let doc = "Table 3: R_fast with brute-force multiplexing." in
  Cmd.v
    (Cmd.info "table3" ~doc)
    Term.(
      const (fun ctx n s d -> finishing ctx (fun () -> run_table3 ctx n s d))
      $ ctx_term $ network_arg $ seed_arg $ double_sample_arg)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect the telemetry metrics registry and the per-recovery \
           phase breakdown (detect/report/activate/switch) and emit them \
           as extra tables (and JSON sections with --json).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the typed event log to FILE: JSONL when FILE ends in \
           .jsonl, Chrome trace_event JSON (chrome://tracing, Perfetto) \
           otherwise.")

(* --metrics and --trace-out: either one turns the telemetry collector
   on, and every subcommand that takes them hands it to its experiment
   as [?obs]. *)
type obs = {
  collector : Eval.Telemetry.collector option;
  show_metrics : bool;
  trace_out : string option;
}

let no_obs = { collector = None; show_metrics = false; trace_out = None }

let obs_term =
  Term.(
    const (fun show_metrics trace_out ->
        let collector =
          if show_metrics || trace_out <> None then
            Some (Eval.Telemetry.create ~events:(trace_out <> None))
          else None
        in
        { collector; show_metrics; trace_out })
    $ metrics_arg $ trace_out_arg)

(* Event logs go to FILE as JSONL or a Chrome trace, by file suffix.
   When the profiler is on, Chrome traces also carry the engine spans
   recorded so far, merged onto the protocol timeline. *)
let write_trace path events =
  if Filename.check_suffix path ".jsonl" then
    write_file path (fun oc -> Eval.Telemetry.events_to_jsonl oc events)
  else begin
    let prof =
      if Sim.Prof.enabled () then Some (Sim.Prof.report ()) else None
    in
    write_json_file path (Eval.Telemetry.events_to_chrome ?prof events)
  end;
  Printf.printf "wrote %d events to %s\n" (List.length events) path

(* Emit what the collector holds: the phase-breakdown and metrics
   tables (and their JSON sections) with --metrics, the event log with
   --trace-out.  Establishment-time multiplexing updates lead the log
   under the pseudo-scenario -1; the experiment's events follow per
   scenario. *)
let finish_obs ctx obs =
  Option.iter
    (fun c ->
      if obs.show_metrics then begin
        let metrics = Eval.Telemetry.metrics c in
        let phases = Eval.Recovery_delay.phases_of_snapshot metrics in
        emit ctx (Eval.Recovery_delay.phases_report phases);
        emit ctx (Eval.Telemetry.metrics_report metrics);
        ctx.extra :=
          ("metrics", Eval.Telemetry.metrics_to_json metrics)
          :: ("phases", Eval.Recovery_delay.phases_to_json phases)
          :: !(ctx.extra)
      end;
      Option.iter
        (fun path -> write_trace path (Eval.Telemetry.events c))
        obs.trace_out)
    obs.collector

let run_delay ?(obs = no_obs) ctx network backups seed scenarios =
  let est =
    Eval.Setup.build ?obs:obs.collector ~seed ~backups ~mux_degree:3 network
  in
  Printf.printf "established %d connections (rejected %d), spare %.2f%%\n\n"
    est.Eval.Setup.established est.Eval.Setup.rejected est.Eval.Setup.spare;
  let stats =
    Eval.Recovery_delay.measure ?obs:obs.collector ~seed
      ~scenario_count:scenarios est.Eval.Setup.ns
  in
  emit ctx (Eval.Recovery_delay.report [ stats ]);
  finish_obs ctx obs

let delay_cmd =
  let doc = "Section 5.3: measured recovery delay vs the analytic bound." in
  Cmd.v
    (Cmd.info "delay" ~doc)
    Term.(
      const (fun ctx n b s sc ->
          finishing ctx (fun () -> run_delay ctx n b s sc))
      $ ctx_term $ network_arg $ backups_arg $ seed_arg $ scenario_count_arg)

let recovery_cmd =
  let doc =
    "Recovery sweep with typed telemetry: phase breakdown \
     (detect/report/activate/switch), metrics registry, and JSONL / Chrome \
     trace export. Without --metrics or --trace-out this is identical to \
     $(b,delay)."
  in
  Cmd.v
    (Cmd.info "recovery" ~doc)
    Term.(
      const (fun ctx obs n b s sc ->
          finishing ctx (fun () -> run_delay ~obs ctx n b s sc))
      $ ctx_term $ obs_term $ network_arg $ backups_arg $ seed_arg
      $ scenario_count_arg)

let run_schemes ctx network seed scenarios =
  let est = Eval.Setup.build ~seed ~backups:1 ~mux_degree:3 network in
  emit ctx
    (Eval.Recovery_delay.compare_schemes ~seed ~scenario_count:scenarios
       est.Eval.Setup.ns);
  emit ctx (Eval.Ablations.scheme_coverage ~seed est.Eval.Setup.ns)

let schemes_cmd =
  let doc = "Section 4.2: compare channel-switching Schemes 1, 2 and 3." in
  Cmd.v
    (Cmd.info "schemes" ~doc)
    Term.(
      const (fun ctx n s sc -> finishing ctx (fun () -> run_schemes ctx n s sc))
      $ ctx_term $ network_arg $ seed_arg $ scenario_count_arg)

let run_priority ctx network seed =
  emit ctx (Eval.Ablations.priority_activation ~seed network)

let priority_cmd =
  let doc = "Section 4.3: priority-based activation under contention." in
  Cmd.v
    (Cmd.info "priority" ~doc)
    Term.(
      const (fun ctx n s -> finishing ctx (fun () -> run_priority ctx n s))
      $ ctx_term $ network_arg $ seed_arg)

let run_hotspot ctx network seed =
  emit ctx (Eval.Ablations.inhomogeneous ~seed network)

let hotspot_cmd =
  let doc = "Section 7.1/7.4: hot-spot traffic, proposed vs brute-force." in
  Cmd.v
    (Cmd.info "hotspot" ~doc)
    Term.(
      const (fun ctx n s -> finishing ctx (fun () -> run_hotspot ctx n s))
      $ ctx_term $ network_arg $ seed_arg)

let run_routing ctx network seed =
  emit ctx (Eval.Ablations.backup_routing ~seed network)

let routing_cmd =
  let doc = "Extension: spare-increment-minimising backup routing [HAN97b]." in
  Cmd.v
    (Cmd.info "routing" ~doc)
    Term.(
      const (fun ctx n s -> finishing ctx (fun () -> run_routing ctx n s))
      $ ctx_term $ network_arg $ seed_arg)

let run_fig8 ctx network seed =
  emit ctx (Eval.Message_loss.report (Eval.Message_loss.run ~seed network))

let fig8_cmd =
  let doc = "Figure 8: message loss during failure recovery (data plane)." in
  Cmd.v
    (Cmd.info "fig8" ~doc)
    Term.(
      const (fun ctx n s -> finishing ctx (fun () -> run_fig8 ctx n s))
      $ ctx_term $ network_arg $ seed_arg)

let run_sensitivity ctx network seed =
  emit ctx (Eval.Sensitivity.traffic ~seed network);
  emit ctx (Eval.Sensitivity.topology ~seed ());
  let est = Eval.Setup.build ~seed ~backups:1 ~mux_degree:3 network in
  emit ctx
    (Eval.Sensitivity.s_max_audit est.Eval.Setup.ns Rcc.Transport.default_params)

let sensitivity_cmd =
  let doc = "Section 7.1: traffic/topology sensitivity + S_max audit." in
  Cmd.v
    (Cmd.info "sensitivity" ~doc)
    Term.(
      const (fun ctx n s -> finishing ctx (fun () -> run_sensitivity ctx n s))
      $ ctx_term $ network_arg $ seed_arg)

let run_baseline ctx network seed double_sample =
  let ds = Option.value ~default:300 double_sample in
  emit ctx
    (Eval.Baselines.report network
       (Eval.Baselines.compare ~seed ~double_sample:ds network))

let baseline_cmd =
  let doc = "Section 8: BCP vs reactive re-establishment [BAN93]." in
  Cmd.v
    (Cmd.info "baseline" ~doc)
    Term.(
      const (fun ctx n s d -> finishing ctx (fun () -> run_baseline ctx n s d))
      $ ctx_term $ network_arg $ seed_arg $ double_sample_arg)

let run_multi ?(obs = no_obs) ctx network seed =
  (* The analytic engine has no event stream, so observing switches the
     sweep to the event-driven simulator. *)
  (match obs.collector with
  | None -> emit ctx (Eval.Multi_failure.sweep ~seed network)
  | Some c -> emit ctx (Eval.Multi_failure.simulate ~obs:c ~seed network));
  finish_obs ctx obs

let multi_cmd =
  let doc =
    "Extension: R_fast under k simultaneous link failures. With --metrics \
     or --trace-out the sweep switches to the event-driven simulator \
     (single configuration, reduced k ladder) so burst-failure traces \
     exist for auditing."
  in
  Cmd.v
    (Cmd.info "multi" ~doc)
    Term.(
      const (fun ctx obs n s ->
          finishing ctx (fun () -> run_multi ~obs ctx n s))
      $ ctx_term $ obs_term $ network_arg $ seed_arg)

let detector_conv =
  let parse = function
    | "oracle" -> Ok `Oracle
    | "heartbeat" -> Ok `Heartbeat
    | s -> Error (`Msg (Printf.sprintf "unknown detector %S (oracle|heartbeat)" s))
  in
  let print ppf d =
    Format.pp_print_string ppf
      (match d with `Oracle -> "oracle" | `Heartbeat -> "heartbeat")
  in
  Arg.conv (parse, print)

let detector_arg =
  Arg.(
    value
    & opt detector_conv `Oracle
    & info [ "detector" ] ~docv:"DET"
        ~doc:"Failure detector: oracle or heartbeat.")

let rate_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be in [0, 1]" what))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let loss_arg =
  Arg.(
    value
    & opt (some (rate_conv "loss rate")) None
    & info [ "loss" ] ~docv:"P"
        ~doc:"Run a single impairment level with this loss rate instead of \
              the default ladder.")

let gray_arg =
  Arg.(
    value
    & opt (rate_conv "gray fraction") 0.0
    & info [ "gray" ] ~docv:"F"
        ~doc:"Gray-failure link fraction for the single level (with --loss).")

let horizon_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (`Msg "--horizon must be > 0 seconds")
    | None -> Error (`Msg (Printf.sprintf "invalid horizon %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let horizon_arg =
  Arg.(
    value
    & opt (some horizon_conv) None
    & info [ "horizon" ] ~docv:"SEC" ~doc:"Simulated time past each fault.")

let chaos_levels loss gray =
  match loss with
  | None -> None
  | Some p ->
    Some [ Eval.Chaos.level p ~dup:(p /. 2.0) ~jitter:5e-4 ~gray_frac:gray ]

let run_chaos ctx obs network seed scenarios detector loss gray horizon =
  emit ctx
    (Eval.Chaos.sweep ?obs:obs.collector ~seed ~scenario_count:scenarios
       ?horizon ~detector ?levels:(chaos_levels loss gray) network);
  finish_obs ctx obs

let chaos_cmd =
  let doc =
    "Chaos sweep: R_fast, disruption time and RCC overhead vs control-plane \
     impairment (loss/dup/jitter/gray links), with oracle or heartbeat \
     failure detection. --metrics and --trace-out export the typed \
     telemetry of every simulated scenario."
  in
  Cmd.v
    (Cmd.info "chaos" ~doc)
    Term.(
      const (fun ctx obs n s sc d l g h ->
          finishing ctx (fun () -> run_chaos ctx obs n s sc d l g h))
      $ ctx_term $ obs_term $ network_arg $ seed_arg $ scenario_count_arg
      $ detector_arg $ loss_arg $ gray_arg $ horizon_arg)

(* ---------- audit ---------- *)

let filter_conv =
  let parse s =
    match String.index_opt s '=' with
    | None ->
      Error (`Msg "expected a filter of the form conn=ID, link=ID or link=A-B")
    | Some i -> (
      let key = String.sub s 0 i in
      let v = String.sub s (i + 1) (String.length s - i - 1) in
      match (key, int_of_string_opt v) with
      | "conn", Some id -> Ok (`Conn id)
      | "link", Some id -> Ok (`Link id)
      | "link", None -> (
        match String.split_on_char '-' v with
        | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Ok (`Link_pair (a, b))
          | _ -> Error (`Msg (Printf.sprintf "invalid link endpoints %S" v)))
        | _ -> Error (`Msg (Printf.sprintf "invalid link filter %S" v)))
      | "conn", None -> Error (`Msg (Printf.sprintf "invalid connection id %S" v))
      | _ -> Error (`Msg (Printf.sprintf "unknown filter key %S" key)))
  in
  let print ppf = function
    | `Conn id -> Format.fprintf ppf "conn=%d" id
    | `Link id -> Format.fprintf ppf "link=%d" id
    | `Link_pair (a, b) -> Format.fprintf ppf "link=%d-%d" a b
  in
  Arg.conv (parse, print)

let filter_arg =
  Arg.(
    value
    & opt_all filter_conv []
    & info [ "filter" ] ~docv:"F"
        ~doc:
          "Restrict the report to one connection (conn=ID) or link \
           (link=ID, or link=A-B for the directed links between nodes A \
           and B of --network). Repeatable; any match keeps an entry.")

let trace_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Replay this trace file (JSONL or Chrome trace_event, as \
           written by --trace-out) instead of running a live sweep.")

let audit_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the audit result to FILE (schema bcp-audit/v1).")

(* Resolve link=A-B against the topology: both directed links count. *)
let resolve_filters network filters =
  let topo = Eval.Setup.topology_of network in
  List.concat_map
    (function
      | `Conn id -> [ Eval.Audit.Conn id ]
      | `Link id -> [ Eval.Audit.Link id ]
      | `Link_pair (a, b) -> (
        (* Out-of-range endpoints are "no such link", not a crash. *)
        let find ~src ~dst =
          try Net.Topology.find_link topo ~src ~dst
          with Invalid_argument _ -> None
        in
        match (find ~src:a ~dst:b, find ~src:b ~dst:a) with
        | None, None ->
          Printf.eprintf "audit: no link between nodes %d and %d\n" a b;
          exit 2
        | l1, l2 ->
          List.filter_map
            (Option.map (fun l -> Eval.Audit.Link l))
            [ l1; l2 ]))
    filters

let run_audit network seed scenarios detector loss gray trace_file filters
    json_out =
  let filters = resolve_filters network filters in
  let source, events, context =
    match trace_file with
    | Some path -> (
      match Eval.Audit.load_trace path with
      | Error e ->
        Printf.eprintf "audit: cannot load %s: %s\n" path e;
        exit 2
      | Ok [] ->
        (* An empty stream "audits" clean vacuously — call it out as a
           malformed input instead of printing 0 violations. *)
        Printf.eprintf "audit: %s contains no replayable events\n" path;
        exit 2
      | Ok evs -> (path, evs, None))
    | None ->
      (* Live mode: a seeded chaos sweep (single level — clean unless
         --loss is given) with the full network context for the
         link-budget checks. *)
      let obs = Eval.Telemetry.create ~events:true in
      let levels =
        match chaos_levels loss gray with
        | None -> Some [ Eval.Chaos.level 0.0 ]
        | levels -> levels
      in
      let est = Eval.Setup.build ~obs ~seed ~backups:1 ~mux_degree:3 network in
      ignore
        (Eval.Chaos.run ~obs ~seed ~scenario_count:scenarios ~detector ?levels
           est.Eval.Setup.ns);
      ( Printf.sprintf "live:%s seed=%d" (Eval.Setup.network_label network) seed,
        Eval.Telemetry.events obs,
        Some (Eval.Audit.context_of_netstate est.Eval.Setup.ns) )
  in
  let result =
    Eval.Audit.apply_filters filters (Eval.Audit.replay ?context events)
  in
  Eval.Audit.print result;
  Option.iter
    (fun path ->
      write_json_file path (Eval.Audit.to_json ~source result);
      Printf.printf "wrote audit to %s\n" path)
    json_out;
  result

let audit_cmd =
  let doc =
    "Protocol auditor: replay a recorded telemetry trace (--trace FILE) or \
     run a seeded live sweep through the online invariant monitor, print \
     the violation report and per-connection recovery timelines, and exit \
     1 if any invariant was violated. --filter conn=ID / link=A-B \
     restricts the report; --json writes schema bcp-audit/v1."
  in
  Cmd.v
    (Cmd.info "audit" ~doc)
    Term.(
      const (fun ctx n s sc d l g tr f j ->
          let result =
            finishing ctx (fun () -> run_audit n s sc d l g tr f j)
          in
          if result.Eval.Audit.total_violations > 0 then Stdlib.exit 1)
      $ plain_ctx_term $ network_arg $ seed_arg $ scenario_count_arg
      $ detector_arg $ loss_arg $ gray_arg $ trace_in_arg $ filter_arg
      $ audit_json_arg)

(* ---------- swarm ---------- *)

let positive_int_conv what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%s must be >= 1 (got %d)" what n))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let budget_arg =
  Arg.(
    value
    & opt (positive_int_conv "--budget") 64
    & info [ "budget" ] ~docv:"N" ~doc:"Number of scenarios to execute.")

let wall_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok v
    | Some _ -> Error (`Msg "--wall must be > 0 seconds")
    | None -> Error (`Msg (Printf.sprintf "invalid wall-clock budget %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let wall_arg =
  Arg.(
    value
    & opt (some wall_conv) None
    & info [ "wall" ] ~docv:"SECS"
        ~doc:
          "Stop starting new scenario batches after SECS wall-clock seconds \
           (an additional cap on --budget; the executed count then depends \
           on machine speed, the per-scenario results do not).")

let strategy_conv =
  let parse s =
    match Eval.Swarm.strategy_of_string s with
    | Some st -> Ok st
    | None ->
      Error (`Msg (Printf.sprintf "unknown strategy %S (coverage|random)" s))
  in
  Arg.conv
    ( parse,
      fun ppf st ->
        Format.pp_print_string ppf (Eval.Swarm.strategy_to_string st) )

let strategy_arg =
  Arg.(
    value
    & opt strategy_conv Eval.Swarm.Coverage
    & info [ "strategy" ] ~docv:"S"
        ~doc:
          "coverage (guided plan mutation) or random (equal-budget \
           pure-random chaos baseline).")

let max_faults_arg =
  Arg.(
    value
    & opt (positive_int_conv "--max-faults") 3
    & info [ "max-faults" ] ~docv:"N"
        ~doc:"Maximum staged component faults per plan.")

let artifact_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "artifact-dir" ] ~docv:"DIR"
        ~doc:
          "Write one replayable bcp-audit/v1 artifact per violation into \
           DIR (created if missing).")

let swarm_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the swarm summary to FILE (schema bcp-swarm/v1).")

let run_swarm ctx obs network seed budget wall strategy detector max_faults
    horizon json_out artifact_dir =
  let est = Eval.Setup.build ?obs:obs.collector network in
  let deadline =
    Option.map
      (fun secs ->
        let t0 = Unix.gettimeofday () in
        fun () -> Unix.gettimeofday () -. t0 >= secs)
      wall
  in
  let report =
    Eval.Swarm.run ?obs:obs.collector ~seed ~budget ~strategy ~detector
      ~max_faults ?horizon ?deadline
      ~network:(Eval.Setup.network_label network)
      est.Eval.Setup.ns
  in
  Eval.Swarm.print report;
  finish_obs ctx obs;
  Option.iter
    (fun path ->
      write_json_file path (Eval.Swarm.report_to_json report);
      Printf.printf "wrote swarm summary to %s\n" path)
    json_out;
  (match artifact_dir with
  | Some dir when report.Eval.Swarm.violations <> [] ->
    or_cannot_write dir (fun () ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
    List.iter
      (fun v ->
        let path =
          Filename.concat dir
            (Printf.sprintf "violation-%04d.json" v.Eval.Swarm.scenario)
        in
        write_json_file path v.Eval.Swarm.artifact;
        Printf.printf "wrote artifact %s\n" path)
      report.Eval.Swarm.violations
  | _ -> ());
  report

let swarm_cmd =
  let doc =
    "Adversarial deterministic-simulation swarm: coverage-guided batches of \
     combinatorial fault plans (timed multi-failure schedules, link \
     impairments, gray links) with seeded scheduler perturbation, checked \
     by the online invariant monitor. Violating runs are delta-debugged to \
     minimal replayable bcp-audit/v1 artifacts; exit 1 if any violation \
     survived. Summaries (--json, schema bcp-swarm/v1) are byte-identical \
     across runs and --jobs settings, with or without --metrics and \
     --trace-out (which export the telemetry every scenario records for \
     its invariant monitor anyway)."
  in
  Cmd.v
    (Cmd.info "swarm" ~doc)
    Term.(
      const (fun ctx obs n s b w st d mf h j ad ->
          let report =
            finishing ctx (fun () ->
                run_swarm ctx obs n s b w st d mf h j ad)
          in
          if report.Eval.Swarm.violations <> [] then Stdlib.exit 1)
      $ plain_ctx_term $ obs_term $ network_arg $ seed_arg $ budget_arg
      $ wall_arg $ strategy_arg $ detector_arg $ max_faults_arg $ horizon_arg
      $ swarm_json_arg $ artifact_dir_arg)

(* ---------- churn ---------- *)

let offered_conv =
  let parse s =
    let parts = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match float_of_string_opt (String.trim p) with
        | Some v when v > 0.0 && Float.is_finite v -> go (v :: acc) rest
        | _ ->
          Error
            (`Msg
              (Printf.sprintf
                 "invalid offered load %S (expected positive Erlangs/node)" p)))
    in
    match parts with
    | [] | [ "" ] -> Error (`Msg "empty offered-load ladder")
    | parts -> go [] parts
  in
  let print ppf levels =
    Format.pp_print_string ppf
      (String.concat "," (List.map (Printf.sprintf "%g") levels))
  in
  Arg.conv (parse, print)

let offered_arg =
  Arg.(
    value
    & opt offered_conv [ 2.0; 4.0; 6.0 ]
    & info [ "offered" ] ~docv:"E1,E2,..."
        ~doc:
          "Comma-separated offered-load ladder, in Erlangs per node; one \
           independent churn cell per level.")

let events_arg =
  Arg.(
    value
    & opt (positive_int_conv "--events") 20_000
    & info [ "events" ] ~docv:"N"
        ~doc:"Connection-lifecycle events to drive per cell.")

let positive_float_conv what =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be > 0" what))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_float)

let holding_arg =
  Arg.(
    value
    & opt (positive_float_conv "--holding") 50.0
    & info [ "holding" ] ~docv:"SEC"
        ~doc:"Mean exponential holding time, sim seconds.")

let churn_bandwidth_arg =
  Arg.(
    value
    & opt (positive_float_conv "--bandwidth") 1.0
    & info [ "bandwidth" ] ~docv:"MBPS" ~doc:"Per-connection bandwidth.")

let fault_every_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && Float.is_finite v -> Ok v
    | Some _ -> Error (`Msg "--fault-every must be >= 0 (0 disables faults)")
    | None -> Error (`Msg (Printf.sprintf "invalid fault interval %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let fault_every_arg =
  Arg.(
    value
    & opt fault_every_conv 0.0
    & info [ "fault-every" ] ~docv:"SEC"
        ~doc:
          "Run a transient single-link fault episode every SEC sim seconds \
           of churn (0 = no faults).")

let windows_arg =
  Arg.(
    value
    & opt (positive_int_conv "--windows") 8
    & info [ "windows" ] ~docv:"N"
        ~doc:"Time windows per cell in the pressure breakdown.")

let max_blocking_conv =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && v <= 100.0 -> Ok v
    | Some _ -> Error (`Msg "--max-blocking must be a percentage in [0, 100]")
    | None -> Error (`Msg (Printf.sprintf "invalid blocking bound %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let max_blocking_arg =
  Arg.(
    value
    & opt (some max_blocking_conv) None
    & info [ "max-blocking" ] ~docv:"PCT"
        ~doc:
          "Fail (exit 1) if any cell's blocking probability exceeds PCT \
           percent.")

let churn_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the churn summary to FILE (schema bcp-churn/v1).")

let run_churn ctx obs network seed events offered holding bandwidth backups
    fault_every horizon windows detector json_out =
  let horizon = Option.value ~default:0.25 horizon in
  let t0 = Unix.gettimeofday () in
  let outcomes =
    Eval.Churn.run ?obs:obs.collector ~seed ~events ~offered
      ~mean_holding:holding ~bandwidth ~backups ~fault_every ~horizon
      ~detector ~windows network
  in
  let wall = Unix.gettimeofday () -. t0 in
  Eval.Report.print
    (Eval.Churn.summary_report
       ~title:
         (Printf.sprintf "Steady-state churn (%s, %s detector)"
            (Eval.Setup.network_label network)
            (match detector with `Oracle -> "oracle" | `Heartbeat -> "heartbeat"))
       outcomes);
  List.iter
    (fun o -> Eval.Report.print (Eval.Churn.windows_report o))
    outcomes;
  finish_obs ctx obs;
  Option.iter
    (fun path ->
      write_json_file path
        (Eval.Churn.report_to_json ~seed ~events ~fault_every ~horizon
           ~detector ~network outcomes);
      Printf.printf "wrote churn summary to %s\n" path)
    json_out;
  let total_events =
    List.fold_left
      (fun a (o : Eval.Churn.outcome) -> a + o.Eval.Churn.events)
      0 outcomes
  in
  Printf.printf "timing: churn wall %.3f s (%d lifecycle events, %.0f events/s)\n"
    wall total_events
    (float_of_int total_events /. wall);
  outcomes

(* Exit 1 on any monitor violation or a --max-blocking breach. *)
let check_churn max_blocking outcomes =
  let violations = Eval.Churn.total_violations outcomes in
  if violations > 0 then begin
    Printf.eprintf "churn: %d monitor violation(s) during fault episodes\n"
      violations;
    exit 1
  end;
  match max_blocking with
  | Some cap ->
    List.iter
      (fun o ->
        if o.Eval.Churn.blocking > cap then begin
          Printf.eprintf
            "churn: blocking %.2f%% at offered %.1f E/node exceeds \
             --max-blocking %.2f%%\n"
            o.Eval.Churn.blocking o.Eval.Churn.offered cap;
          exit 1
        end)
      outcomes
  | None -> ()

let churn_cmd =
  let doc =
    "Steady-state churn engine: Poisson arrivals with exponential holding \
     times at a ladder of offered loads, streamed through admission and \
     teardown with transient audited fault episodes in between \
     (--fault-every). Reports blocking probability, R_fast under churn, \
     disruption percentiles and mux-table pressure per time window; --json \
     writes schema bcp-churn/v1, byte-identical for every --jobs. Exit 1 \
     on any monitor violation or a --max-blocking breach."
  in
  Cmd.v
    (Cmd.info "churn" ~doc)
    Term.(
      const (fun ctx obs n s e off h bw b fe hz w d mb j ->
          check_churn mb
            (finishing ctx (fun () ->
                 run_churn ctx obs n s e off h bw b fe hz w d j)))
      $ plain_ctx_term $ obs_term $ network_arg $ seed_arg $ events_arg
      $ offered_arg $ holding_arg $ churn_bandwidth_arg $ backups_arg
      $ fault_every_arg $ horizon_arg $ windows_arg $ detector_arg
      $ max_blocking_arg $ churn_json_arg)

let run_markov ctx () =
  let rows = Eval.Reliability_cmp.compute ~hops:[ 1; 2; 4; 7; 10; 14 ] in
  emit ctx (Eval.Reliability_cmp.report rows)

let markov_cmd =
  let doc = "Figure 3: Markov reliability models vs the combinatorial P_r." in
  Cmd.v
    (Cmd.info "markov" ~doc)
    Term.(
      const (fun ctx -> finishing ctx (fun () -> run_markov ctx ()))
      $ ctx_term)

let run_all ctx seed double_sample =
  let ds = match double_sample with None -> Some 300 | some -> some in
  List.iter
    (fun network ->
      run_fig9 ctx network 1 seed;
      run_table1 ctx network 1 seed ds;
      (match network with
      | Eval.Setup.Torus8 -> run_table1 ctx network 2 seed ds
      | _ -> ());
      run_table2 ctx network 1 seed ds;
      (match network with
      | Eval.Setup.Torus8 -> run_table2 ctx network 2 seed ds
      | _ -> ());
      run_table3 ctx network seed ds)
    [ Eval.Setup.Torus8; Eval.Setup.Mesh8 ];
  run_delay ctx Eval.Setup.Torus8 1 seed 16;
  run_schemes ctx Eval.Setup.Torus8 seed 8;
  run_priority ctx Eval.Setup.Torus8 seed;
  run_hotspot ctx Eval.Setup.Torus8 seed;
  run_routing ctx Eval.Setup.Torus8 seed;
  run_fig8 ctx Eval.Setup.Torus8 seed;
  run_sensitivity ctx Eval.Setup.Torus8 seed;
  run_baseline ctx Eval.Setup.Torus8 seed double_sample;
  run_multi ctx Eval.Setup.Torus8 seed;
  run_markov ctx ()

let all_cmd =
  let doc = "Run the complete evaluation (every table and figure)." in
  Cmd.v
    (Cmd.info "all" ~doc)
    Term.(
      const (fun ctx s d -> finishing ctx (fun () -> run_all ctx s d))
      $ ctx_term $ seed_arg $ double_sample_arg)

let () =
  let doc =
    "Reproduction of 'Fast Restoration of Real-Time Communication Service \
     from Component Failures in Multi-hop Networks' (Han & Shin, SIGCOMM '97)"
  in
  let info = Cmd.info "bcp_sim" ~version:"1.0.0" ~doc in
  (* Usage errors (unknown flags, malformed option values such as
     [--jobs 0]) exit with code 2. *)
  let code =
    Cmd.eval ~term_err:2
      (Cmd.group info
          [
            fig9_cmd;
            table1_cmd;
            table2_cmd;
            table3_cmd;
            delay_cmd;
            recovery_cmd;
            schemes_cmd;
            priority_cmd;
            hotspot_cmd;
            routing_cmd;
            fig8_cmd;
            sensitivity_cmd;
            baseline_cmd;
            multi_cmd;
            markov_cmd;
            chaos_cmd;
            audit_cmd;
            swarm_cmd;
            churn_cmd;
            all_cmd;
          ])
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
