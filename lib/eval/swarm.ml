type strategy = Coverage | Random

let strategy_to_string = function Coverage -> "coverage" | Random -> "random"

let strategy_of_string = function
  | "coverage" -> Some Coverage
  | "random" -> Some Random
  | _ -> None

(* Seed lineage: element 0 derives the root-generation seed from the
   swarm seed, each further element derives one mutation seed from its
   parent's.  The chain value is also the per-plan seed the run derives
   its impairment / perturbation sub-seeds from. *)
let seed_chain ~seed lineage =
  List.fold_left (fun s i -> Sim.Prng.derive ~seed:s ~index:i) seed lineage

let plan_of_lineage ~seed ~strategy ~max_faults ~horizon topo lineage =
  match lineage with
  | [] -> invalid_arg "Swarm.plan_of_lineage: empty lineage"
  | i0 :: rest ->
    let s0 = Sim.Prng.derive ~seed ~index:i0 in
    let root =
      match strategy with
      | Coverage ->
        Failures.Plan.generate (Sim.Prng.create s0) topo ~max_faults ~horizon ()
      | Random -> Failures.Plan.random_chaos (Sim.Prng.create s0) topo
    in
    snd
      (List.fold_left
         (fun (s, plan) j ->
           let s' = Sim.Prng.derive ~seed:s ~index:j in
           (s', Failures.Plan.mutate (Sim.Prng.create s') topo plan))
         (s0, root) rest)

type violation_report = {
  scenario : int;
  lineage : int list;
  plan : Failures.Plan.t;
  kind : Sim.Monitor.kind;
  v_index : int;
  v_time : float;
  minimized_events : int;
  original_events : int;
  replays : int;
  replay_context : bool;
  artifact : Json.t;
}

type report = {
  seed : int;
  strategy : strategy;
  network : string;
  detector : string;
  budget : int;
  executed : int;
  horizon : float;
  max_faults : int;
  coverage : string list;
  curve : (int * int) list;
  affected : int;
  recovered : int;
  perturbed : int;
  violations : violation_report list;
}

let detector_label = function `Oracle -> "oracle" | `Heartbeat -> "heartbeat"

(* ---------- artifacts ---------- *)

let artifact_with ~context ~seed ~strategy ~lineage ~plan ~replay_context
    (o : Minimize.outcome) =
  let audit =
    Audit.replay ?context:(if replay_context then context else None) o.events
  in
  let source =
    Printf.sprintf "swarm seed %d lineage [%s]" seed
      (String.concat ";" (List.map string_of_int lineage))
  in
  let base =
    match Audit.to_json ~source audit with
    | Json.Obj fields -> fields
    | j -> [ ("audit", j) ]
  in
  let plan_json =
    match Json.of_string (Failures.Plan.to_json plan) with
    | Ok j -> j
    | Error _ -> Json.String (Failures.Plan.to_json plan)
  in
  Json.Obj
    (base
    @ [
        ( "swarm",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("strategy", Json.String (strategy_to_string strategy));
              ("lineage", Json.List (List.map (fun i -> Json.Int i) lineage));
              ("plan", plan_json);
              ("replay_context", Json.Bool replay_context);
              ("minimized_from", Json.Int o.Minimize.original_events);
              ("replays", Json.Int o.Minimize.replays);
            ] );
        ("trace", Json.List (List.map Telemetry.tagged_to_json o.events));
      ])

let artifact_of = artifact_with ~context:None

(* ---------- one scenario ---------- *)

type run_result = {
  rr_coverage : string list;
  rr_violation : violation_report option;
  rr_episode : Episode.outcome;
}

let run_one ~obs ~seed ~strategy ~max_faults ~horizon ~config ~context
    topo ns (exec_idx, lineage) =
  let plan = plan_of_lineage ~seed ~strategy ~max_faults ~horizon topo lineage in
  let plan_seed = seed_chain ~seed lineage in
  let monitor =
    Sim.Monitor.create ~context ~decode_channel:Audit.decode_cid ()
  in
  let o =
    Episode.run ?obs ~monitor
      ~seeds:
        ( Sim.Prng.derive ~seed:plan_seed ~index:101,
          Sim.Prng.derive ~seed:plan_seed ~index:102 )
      ~config ~until:horizon ns plan
  in
  let rr_violation =
    match Sim.Monitor.violations monitor with
    | [] -> None
    | v0 :: _ ->
      let events =
        List.map
          (fun (time, ev) -> (exec_idx, time, ev))
          (Sim.Trace.events o.trace)
      in
      let kind = v0.Sim.Monitor.kind in
      (* Minimize against the same oracle a bare [bcp_sim audit] replay
         uses (no link-budget context); kinds that only fire with the
         context fall back to with-context minimization, flagged so. *)
      let outcome, replay_context =
        match Minimize.minimize ~kind events with
        | Some o -> (Some o, false)
        | None -> (Minimize.minimize ~context ~kind events, true)
      in
      let outcome, replay_context =
        match outcome with
        | Some o -> (o, replay_context)
        | None ->
          (* Online detection that offline replay cannot reproduce —
             ship the full stream unminimized for forensics. *)
          ( {
              Minimize.events;
              violation = v0;
              scenario = exec_idx;
              original_events = List.length events;
              replays = 0;
            },
            true )
      in
      let v = outcome.Minimize.violation in
      Some
        {
          scenario = exec_idx;
          lineage;
          plan;
          kind = v.Sim.Monitor.kind;
          v_index = v.Sim.Monitor.index;
          v_time = v.Sim.Monitor.time;
          minimized_events = List.length outcome.Minimize.events;
          original_events = outcome.Minimize.original_events;
          replays = outcome.Minimize.replays;
          replay_context;
          artifact =
            artifact_with ~context:(Some context) ~seed ~strategy ~lineage
              ~plan ~replay_context outcome;
        }
  in
  { rr_coverage = Sim.Monitor.coverage monitor; rr_violation; rr_episode = o }

(* ---------- the swarm loop ---------- *)

let batch_size = 8

let run ?obs ?(seed = 11) ?(budget = 64) ?(strategy = Coverage)
    ?(detector = `Oracle) ?(max_faults = 3) ?(horizon = 0.25) ?deadline
    ?(network = "") ns =
  if budget < 1 then invalid_arg "Swarm.run: budget < 1";
  let topo = Bcp.Netstate.topology ns in
  let config = Episode.config detector in
  let context = Audit.context_of_netstate ns in
  let cov = Hashtbl.create 256 in
  let curve = ref [] in
  let frontier = Queue.create () in
  let child_count : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let next_root = ref 0 in
  let executed = ref 0 in
  let affected = ref 0 and recovered = ref 0 and perturbed = ref 0 in
  let violations = ref [] in
  let expired = match deadline with None -> fun () -> false | Some f -> f in
  while !executed < budget && not (expired ()) do
    (* Batch composition and result merging are serial, so the schedule
       of lineages — and hence the whole summary — is independent of
       how many domains execute the batch. *)
    let n = min batch_size (budget - !executed) in
    let items =
      List.init n (fun k ->
          let lineage =
            if strategy = Coverage && not (Queue.is_empty frontier) then
              Queue.pop frontier
            else begin
              let r = !next_root in
              incr next_root;
              [ r ]
            end
          in
          (!executed + k, lineage))
    in
    let results =
      Sim.Pool.map
        (run_one ~obs ~seed ~strategy ~max_faults ~horizon ~config
           ~context topo ns)
        items
    in
    List.iter2
      (fun (exec_idx, lineage) rr ->
        let fresh =
          List.filter (fun k -> not (Hashtbl.mem cov k)) rr.rr_coverage
        in
        List.iter (fun k -> Hashtbl.replace cov k ()) fresh;
        affected := !affected + List.length rr.rr_episode.affected;
        recovered := !recovered + List.length rr.rr_episode.recovered;
        perturbed := !perturbed + rr.rr_episode.perturbed;
        (* The monitor already forces the typed-telemetry plane on, so
           observing reads what every swarm run records anyway: the
           summary is byte-identical whether or not the caller observes. *)
        Telemetry.add obs ~tag:exec_idx rr.rr_episode.run;
        (match rr.rr_violation with
        | Some v -> violations := v :: !violations
        | None -> ());
        (* A run that discovered coverage is worth perturbing further. *)
        if strategy = Coverage && fresh <> [] then begin
          let c =
            Option.value ~default:0 (Hashtbl.find_opt child_count lineage)
          in
          Hashtbl.replace child_count lineage (c + 2);
          Queue.push (lineage @ [ c ]) frontier;
          Queue.push (lineage @ [ c + 1 ]) frontier
        end)
      items results;
    executed := !executed + n;
    curve := (!executed, Hashtbl.length cov) :: !curve
  done;
  {
    seed;
    strategy;
    network;
    detector = detector_label detector;
    budget;
    executed = !executed;
    horizon;
    max_faults;
    coverage =
      List.sort String.compare
        (Hashtbl.fold (fun k () acc -> k :: acc) cov []);
    curve = List.rev !curve;
    affected = !affected;
    recovered = !recovered;
    perturbed = !perturbed;
    violations = List.rev !violations;
  }

(* ---------- rendering ---------- *)

let violation_to_json v =
  Json.Obj
    [
      ("scenario", Json.Int v.scenario);
      ("lineage", Json.List (List.map (fun i -> Json.Int i) v.lineage));
      ("label", Json.String v.plan.Failures.Plan.label);
      ("kind", Json.String (Sim.Monitor.kind_to_string v.kind));
      ("index", Json.Int v.v_index);
      ("time", Json.Float v.v_time);
      ("minimized_events", Json.Int v.minimized_events);
      ("original_events", Json.Int v.original_events);
      ("replays", Json.Int v.replays);
      ("replay_context", Json.Bool v.replay_context);
    ]

let report_to_json r =
  Json.Obj
    [
      ("schema", Json.String "bcp-swarm/v1");
      ("seed", Json.Int r.seed);
      ("strategy", Json.String (strategy_to_string r.strategy));
      ("network", Json.String r.network);
      ("detector", Json.String r.detector);
      ("budget", Json.Int r.budget);
      ("executed", Json.Int r.executed);
      ("horizon", Json.Float r.horizon);
      ("max_faults", Json.Int r.max_faults);
      ( "coverage",
        Json.Obj
          [
            ("count", Json.Int (List.length r.coverage));
            ("keys", Json.List (List.map (fun k -> Json.String k) r.coverage));
          ] );
      ( "curve",
        Json.List
          (List.map
             (fun (n, c) ->
               Json.Obj [ ("scenarios", Json.Int n); ("coverage", Json.Int c) ])
             r.curve) );
      ("affected", Json.Int r.affected);
      ("recovered", Json.Int r.recovered);
      ("perturbed", Json.Int r.perturbed);
      ("violations", Json.List (List.map violation_to_json r.violations));
    ]

let count_prefix prefix keys =
  List.length
    (List.filter (fun k -> String.length k >= String.length prefix
                           && String.sub k 0 (String.length prefix) = prefix)
       keys)

let print r =
  Printf.printf
    "swarm: %s strategy, seed %d, %d/%d scenarios on %s (%s detector)\n"
    (strategy_to_string r.strategy)
    r.seed r.executed r.budget
    (if r.network = "" then "network" else r.network)
    r.detector;
  Printf.printf
    "coverage: %d keys (%d transitions, %d outcomes, %d violation kinds)\n"
    (List.length r.coverage)
    (count_prefix "trans:" r.coverage)
    (count_prefix "outcome:" r.coverage)
    (count_prefix "viol:" r.coverage);
  Printf.printf "curve:";
  List.iter (fun (n, c) -> Printf.printf " %d->%d" n c) r.curve;
  print_newline ();
  Printf.printf "affected %d, recovered %d, perturbed events %d\n" r.affected
    r.recovered r.perturbed;
  if r.violations = [] then Printf.printf "violations: none\n"
  else begin
    Printf.printf "violations: %d\n" (List.length r.violations);
    List.iter
      (fun v ->
        Printf.printf
          "  scenario %d lineage [%s] %s: %s at #%d t=%.6f (%d -> %d events%s)\n"
          v.scenario
          (String.concat ";" (List.map string_of_int v.lineage))
          v.plan.Failures.Plan.label
          (Sim.Monitor.kind_to_string v.kind)
          v.v_index v.v_time v.original_events v.minimized_events
          (if v.replay_context then ", needs context" else ""))
      r.violations
  end
