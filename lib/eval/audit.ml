let decode_cid c = (Bcp.Protocol.conn_of_cid c, Bcp.Protocol.serial_of_cid c)

let context_of_netstate ns =
  let topo = Bcp.Netstate.topology ns in
  let res = Bcp.Netstate.resources ns in
  let link_ctx =
    Array.init (Net.Topology.num_links topo) (fun l ->
        {
          Sim.Monitor.capacity = Rtchan.Resource.capacity res l;
          reserved = Rtchan.Resource.primary res l;
          spare = Rtchan.Resource.spare res l;
        })
  in
  let chan_of ~conn ~serial ~bw path =
    {
      Sim.Monitor.channel = Bcp.Protocol.cid ~conn ~serial;
      cc_conn = conn;
      cc_serial = serial;
      bw;
      nodes = Array.of_list (Net.Path.nodes topo path);
      links = Array.of_list (Net.Path.links path);
    }
  in
  let chans, bws =
    List.fold_left
      (fun (chans, bws) c ->
        let bw = Bcp.Dconn.bandwidth c in
        let chans =
          chan_of ~conn:c.Bcp.Dconn.id ~serial:0 ~bw
            c.Bcp.Dconn.primary.Rtchan.Channel.path
          :: chans
        in
        List.fold_left
          (fun (chans, bws) b ->
            if b.Bcp.Dconn.state = Bcp.Dconn.Standby then
              ( chan_of ~conn:c.Bcp.Dconn.id ~serial:b.Bcp.Dconn.serial ~bw
                  b.Bcp.Dconn.path
                :: chans,
                (b.Bcp.Dconn.bid, bw) :: bws )
            else (chans, bws))
          (chans, bws) c.Bcp.Dconn.backups)
      ([], []) (Bcp.Netstate.dconns ns)
  in
  let mux_bw =
    match Bcp.Netstate.policy ns with
    | Bcp.Netstate.Multiplexed -> List.rev bws
    | Bcp.Netstate.Brute_force _ -> []
  in
  { Sim.Monitor.link_ctx; chan_ctx = List.rev chans; mux_bw }

(* A [bcp-audit/v1] artifact with an embedded ["trace"] member (as the
   swarm minimizer writes) replays like any other trace file. *)
let events_of_artifact j =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Telemetry.tagged_of_json line with
      | Ok ev -> go (ev :: acc) rest
      | Error e -> Error (Printf.sprintf "embedded trace: %s" e))
  in
  match Json.member "trace" j with
  | Some (Json.List lines) -> go [] lines
  | Some _ -> Error "artifact \"trace\" member is not an array"
  | None -> Error "bcp-audit/v1 document has no embedded \"trace\" member"

let load_trace path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    contents
  with
  | exception Sys_error e -> Error e
  | exception e -> Error (Printexc.to_string e)
  | contents ->
    if Filename.check_suffix path ".jsonl" then
      Telemetry.events_of_jsonl contents
    else (
      match Json.of_string contents with
      | Error e -> Error e
      | Ok j -> (
        match Json.member "schema" j with
        | Some (Json.String "bcp-audit/v1") -> events_of_artifact j
        | _ -> Telemetry.events_of_chrome j))

(* ---------- replay ---------- *)

type scenario_audit = {
  scenario : int;
  events : int;
  violations : Sim.Monitor.violation list;
  timelines : Sim.Monitor.timeline list;
}

type result = {
  scenarios : scenario_audit list;
  total_events : int;
  total_violations : int;
}

let replay ?context events =
  (* Group by scenario tag, preserving each stream's recording order. *)
  let streams = Hashtbl.create 16 in
  let tags = ref [] in
  List.iter
    (fun (sc, time, ev) ->
      let q =
        match Hashtbl.find_opt streams sc with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.add streams sc q;
          tags := sc :: !tags;
          q
      in
      Queue.push (time, ev) q)
    events;
  let scenarios =
    List.map
      (fun sc ->
        let mon =
          Sim.Monitor.create ?context ~decode_channel:decode_cid ()
        in
        Queue.iter
          (fun (time, ev) -> Sim.Monitor.feed mon ~time ev)
          (Hashtbl.find streams sc);
        Sim.Monitor.finish mon;
        {
          scenario = sc;
          events = Sim.Monitor.events_seen mon;
          violations = Sim.Monitor.violations mon;
          timelines = Sim.Monitor.timelines mon;
        })
      (List.sort_uniq Int.compare !tags)
  in
  {
    scenarios;
    total_events = List.length events;
    total_violations =
      List.fold_left (fun n s -> n + List.length s.violations) 0 scenarios;
  }

(* ---------- filtering ---------- *)

type filter = Conn of int | Link of int

let violation_matches filters (v : Sim.Monitor.violation) =
  filters = []
  || List.exists
       (function
         | Conn id -> v.Sim.Monitor.conn = Some id
         | Link id -> v.Sim.Monitor.link = Some id)
       filters

let timeline_matches filters (tl : Sim.Monitor.timeline) =
  let conns = List.filter_map (function Conn id -> Some id | _ -> None) filters in
  conns = [] || List.mem tl.Sim.Monitor.tl_conn conns

let apply_filters filters result =
  if filters = [] then result
  else begin
    let scenarios =
      List.map
        (fun s ->
          {
            s with
            violations = List.filter (violation_matches filters) s.violations;
            timelines = List.filter (timeline_matches filters) s.timelines;
          })
        result.scenarios
    in
    {
      result with
      scenarios;
      total_violations =
        List.fold_left (fun n s -> n + List.length s.violations) 0 scenarios;
    }
  end

(* ---------- rendering ---------- *)

let opt_int = function None -> Json.Null | Some i -> Json.Int i
let opt_time = function None -> Json.Null | Some t -> Json.Float t

let violation_to_json (v : Sim.Monitor.violation) =
  Json.Obj
    [
      ("kind", Json.String (Sim.Monitor.kind_to_string v.Sim.Monitor.kind));
      ("index", Json.Int v.Sim.Monitor.index);
      ("time", Json.Float v.Sim.Monitor.time);
      ("conn", opt_int v.Sim.Monitor.conn);
      ("link", opt_int v.Sim.Monitor.link);
      ("node", opt_int v.Sim.Monitor.node);
      ("channel", opt_int v.Sim.Monitor.channel);
      ("expected", Json.String v.Sim.Monitor.expected);
      ("actual", Json.String v.Sim.Monitor.actual);
    ]

let timeline_to_json (tl : Sim.Monitor.timeline) =
  Json.Obj
    [
      ("conn", Json.Int tl.Sim.Monitor.tl_conn);
      ("fault", opt_time tl.Sim.Monitor.fault_at);
      ("detect", opt_time tl.Sim.Monitor.detect_at);
      ("report", opt_time tl.Sim.Monitor.report_at);
      ("activate", opt_time tl.Sim.Monitor.activate_at);
      ("switch", opt_time tl.Sim.Monitor.switch_at);
    ]

let to_json ~source result =
  Json.Obj
    [
      ("schema", Json.String "bcp-audit/v1");
      ("source", Json.String source);
      ("events", Json.Int result.total_events);
      ("violations", Json.Int result.total_violations);
      ( "scenarios",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("scenario", Json.Int s.scenario);
                   ("events", Json.Int s.events);
                   ( "violations",
                     Json.List (List.map violation_to_json s.violations) );
                   ( "timelines",
                     Json.List (List.map timeline_to_json s.timelines) );
                 ])
             result.scenarios) );
    ]

let timeline_phases (tl : Sim.Monitor.timeline) =
  [
    ("fault", tl.Sim.Monitor.fault_at);
    ("detect", tl.Sim.Monitor.detect_at);
    ("report", tl.Sim.Monitor.report_at);
    ("activate", tl.Sim.Monitor.activate_at);
    ("switch", tl.Sim.Monitor.switch_at);
  ]

let print_timeline (tl : Sim.Monitor.timeline) =
  Printf.printf "  conn %d\n" tl.Sim.Monitor.tl_conn;
  let prev = ref None in
  List.iter
    (fun (name, at) ->
      match at with
      | None -> ()
      | Some t ->
        (match !prev with
        | None -> Printf.printf "    %-8s %10.3f ms\n" name (1000.0 *. t)
        | Some p ->
          Printf.printf "    %-8s %10.3f ms  (%+.3f ms)\n" name (1000.0 *. t)
            (1000.0 *. (t -. p)));
        prev := Some t)
    (timeline_phases tl)

let scenario_name = function
  | -1 -> "scenario -1 (establishment)"
  | sc -> Printf.sprintf "scenario %d" sc

let print result =
  Printf.printf "audited %d events across %d scenarios: %d violation%s\n"
    result.total_events
    (List.length result.scenarios)
    result.total_violations
    (if result.total_violations = 1 then "" else "s");
  List.iter
    (fun s ->
      match s.violations with
      | [] -> ()
      | vs ->
        Printf.printf "%s: %d violation%s\n" (scenario_name s.scenario)
          (List.length vs)
          (if List.length vs = 1 then "" else "s");
        List.iter
          (fun v -> Format.printf "  %a@." Sim.Monitor.pp_violation v)
          vs)
    result.scenarios;
  let with_timelines =
    List.filter (fun s -> s.timelines <> []) result.scenarios
  in
  if with_timelines <> [] then begin
    Printf.printf "\nrecovery timelines:\n";
    List.iter
      (fun s ->
        Printf.printf "%s\n" (scenario_name s.scenario);
        List.iter print_timeline s.timelines)
      with_timelines
  end
