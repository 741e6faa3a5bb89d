(* JSON codecs and exporters for the typed telemetry plane. *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let int_field name j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Ok (int_of_float f)
    | None -> Error (Printf.sprintf "field %S is not a number" name))

let float_field name j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match Json.to_float_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "field %S is not a number" name))

let string_field name j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match Json.to_string_opt v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "field %S is not a string" name))

let bool_field name j =
  match Json.member name j with
  | Some (Json.Bool b) -> Ok b
  | Some _ -> Error (Printf.sprintf "field %S is not a boolean" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let enum_field name of_string j =
  let* s = string_field name j in
  match of_string s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "field %S: unknown value %S" name s)

(* ---------- events ---------- *)

let event_to_json ev =
  let tag = Sim.Event.type_tag ev in
  let fields =
    match ev with
    | Sim.Event.Chan_transition { node; channel; from_; to_; cause } ->
      [
        ("node", Json.Int node);
        ("channel", Json.Int channel);
        ("from", Json.String (Sim.Event.chan_state_to_string from_));
        ("to", Json.String (Sim.Event.chan_state_to_string to_));
        ("cause", Json.String cause);
      ]
    | Sim.Event.Rcc { link; op; seq; bytes } ->
      [
        ("link", Json.Int link);
        ("op", Json.String (Sim.Event.rcc_op_to_string op));
        ("seq", Json.Int seq);
        ("bytes", Json.Int bytes);
      ]
    | Sim.Event.Detector { node; link; signal } ->
      [
        ("node", Json.Int node);
        ("link", Json.Int link);
        ("signal", Json.String (Sim.Event.detector_signal_to_string signal));
      ]
    | Sim.Event.Activation { node; conn; serial; channel } ->
      [
        ("node", Json.Int node);
        ("conn", Json.Int conn);
        ("serial", Json.Int serial);
        ("channel", Json.Int channel);
      ]
    | Sim.Event.Rejoin_timer { node; channel; op } ->
      [
        ("node", Json.Int node);
        ("channel", Json.Int channel);
        ("op", Json.String (Sim.Event.timer_op_to_string op));
      ]
    | Sim.Event.Mux { link; backup; op; pi; psi } ->
      [
        ("link", Json.Int link);
        ("backup", Json.Int backup);
        ("op", Json.String (Sim.Event.mux_op_to_string op));
        ("pi", Json.Int pi);
        ("psi", Json.Int psi);
      ]
    | Sim.Event.Fault { component; up } ->
      let kind, id =
        match component with
        | Sim.Event.Node v -> ("node", v)
        | Sim.Event.Link l -> ("link", l)
      in
      [
        ("component", Json.String kind);
        ("id", Json.Int id);
        ("up", Json.Bool up);
      ]
    | Sim.Event.Lifecycle { conn; op; active } ->
      [
        ("conn", Json.Int conn);
        ("op", Json.String (Sim.Event.lifecycle_op_to_string op));
        ("active", Json.Int active);
      ]
  in
  Json.Obj (("type", Json.String tag) :: fields)

let event_of_json j =
  let* tag = string_field "type" j in
  match tag with
  | "chan" ->
    let* node = int_field "node" j in
    let* channel = int_field "channel" j in
    let* from_ = enum_field "from" Sim.Event.chan_state_of_string j in
    let* to_ = enum_field "to" Sim.Event.chan_state_of_string j in
    let* cause = string_field "cause" j in
    Ok (Sim.Event.Chan_transition { node; channel; from_; to_; cause })
  | "rcc" ->
    let* link = int_field "link" j in
    let* op = enum_field "op" Sim.Event.rcc_op_of_string j in
    let* seq = int_field "seq" j in
    let* bytes = int_field "bytes" j in
    Ok (Sim.Event.Rcc { link; op; seq; bytes })
  | "detector" ->
    let* node = int_field "node" j in
    let* link = int_field "link" j in
    let* signal = enum_field "signal" Sim.Event.detector_signal_of_string j in
    Ok (Sim.Event.Detector { node; link; signal })
  | "activation" ->
    let* node = int_field "node" j in
    let* conn = int_field "conn" j in
    let* serial = int_field "serial" j in
    let* channel = int_field "channel" j in
    Ok (Sim.Event.Activation { node; conn; serial; channel })
  | "rejoin-timer" ->
    let* node = int_field "node" j in
    let* channel = int_field "channel" j in
    let* op = enum_field "op" Sim.Event.timer_op_of_string j in
    Ok (Sim.Event.Rejoin_timer { node; channel; op })
  | "mux" ->
    let* link = int_field "link" j in
    let* backup = int_field "backup" j in
    let* op = enum_field "op" Sim.Event.mux_op_of_string j in
    let* pi = int_field "pi" j in
    let* psi = int_field "psi" j in
    Ok (Sim.Event.Mux { link; backup; op; pi; psi })
  | "fault" ->
    let* kind = string_field "component" j in
    let* id = int_field "id" j in
    let* up = bool_field "up" j in
    let* component =
      match kind with
      | "node" -> Ok (Sim.Event.Node id)
      | "link" -> Ok (Sim.Event.Link id)
      | _ -> Error (Printf.sprintf "unknown component kind %S" kind)
    in
    Ok (Sim.Event.Fault { component; up })
  | "lifecycle" ->
    let* conn = int_field "conn" j in
    let* op = enum_field "op" Sim.Event.lifecycle_op_of_string j in
    let* active = int_field "active" j in
    Ok (Sim.Event.Lifecycle { conn; op; active })
  | _ -> Error (Printf.sprintf "unknown event type %S" tag)

(* ---------- event-log exporters ---------- *)

let tagged_to_json (scenario, time, ev) =
  match event_to_json ev with
  | Json.Obj fields ->
    Json.Obj
      (("scenario", Json.Int scenario) :: ("time", Json.Float time) :: fields)
  | j -> j

let events_to_jsonl oc events =
  List.iter
    (fun e ->
      Json.output oc (tagged_to_json e);
      output_char oc '\n')
    events

(* ---------- event-log importers ---------- *)

let tagged_of_json j =
  let* scenario = int_field "scenario" j in
  let* time = float_field "time" j in
  let* ev = event_of_json j in
  Ok (scenario, time, ev)

let events_of_jsonl s =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      if String.trim line = "" then go (n + 1) acc rest
      else
        match Json.of_string line with
        | Error e -> Error (Printf.sprintf "line %d: %s" n e)
        | Ok j -> (
          match tagged_of_json j with
          | Error e -> Error (Printf.sprintf "line %d: %s" n e)
          | Ok ev -> go (n + 1) (ev :: acc) rest))
  in
  go 1 [] (String.split_on_char '\n' s)

let events_of_chrome j =
  match Json.member "traceEvents" j with
  | Some (Json.List items) ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* scenario = int_field "pid" item in
        let* ts = float_field "ts" item in
        let* ev =
          match Json.member "args" item with
          | None -> Error "missing field \"args\""
          | Some a -> event_of_json a
        in
        Ok ((scenario, ts /. 1e6, ev) :: acc))
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error "field \"traceEvents\" is not an array"
  | None -> Error "missing field \"traceEvents\""

(* The event's "home" thread in the Chrome view: the acting node where
   there is one, otherwise the link (or component) id. *)
let event_tid = function
  | Sim.Event.Chan_transition { node; _ }
  | Sim.Event.Detector { node; _ }
  | Sim.Event.Activation { node; _ }
  | Sim.Event.Rejoin_timer { node; _ } ->
    node
  | Sim.Event.Rcc { link; _ } | Sim.Event.Mux { link; _ } -> link
  | Sim.Event.Lifecycle { conn; _ } -> conn
  | Sim.Event.Fault { component = Sim.Event.Node v; _ } -> v
  | Sim.Event.Fault { component = Sim.Event.Link l; _ } -> l

(* Engine spans share the timeline with protocol events but live under
   their own process id, so the Chrome/Perfetto UI shows one track group
   per scenario (instant protocol events, simulated time) above one
   "engine" group (complete spans per domain, wall time). *)
let prof_pid = 1_000_000

let prof_span_to_chrome (s : Sim.Prof.raw_span) =
  Json.Obj
    [
      ("name", Json.String s.Sim.Prof.span_name);
      ("cat", Json.String "engine");
      ("ph", Json.String "X");
      ("ts", Json.Float (s.Sim.Prof.start_ns /. 1e3));
      ("dur", Json.Float ((s.Sim.Prof.stop_ns -. s.Sim.Prof.start_ns) /. 1e3));
      ("pid", Json.Int prof_pid);
      ("tid", Json.Int s.Sim.Prof.domain);
      ("args", Json.Obj [ ("depth", Json.Int s.Sim.Prof.depth) ]);
    ]

let events_to_chrome ?prof events =
  let trace_events =
    List.map
      (fun (scenario, time, ev) ->
        Json.Obj
          [
            ("name", Json.String (Sim.Event.to_string ev));
            ("cat", Json.String (Sim.Event.type_tag ev));
            ("ph", Json.String "i");
            ("ts", Json.Float (1e6 *. time));
            ("pid", Json.Int scenario);
            ("tid", Json.Int (event_tid ev));
            ("s", Json.String "t");
            ("args", event_to_json ev);
          ])
      events
  in
  let span_events =
    match prof with
    | None -> []
    | Some (r : Sim.Prof.report) ->
      List.map prof_span_to_chrome r.Sim.Prof.raw_spans
  in
  Json.Obj [ ("traceEvents", Json.List (trace_events @ span_events)) ]

(* ---------- metrics ---------- *)

let labels_to_json labels =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let value_to_json = function
  | Sim.Metrics.Counter_v n ->
    [ ("kind", Json.String "counter"); ("value", Json.Int n) ]
  | Sim.Metrics.Gauge_v v ->
    [ ("kind", Json.String "gauge"); ("value", Json.Float v) ]
  | Sim.Metrics.Timer_v ts ->
    [
      ("kind", Json.String "timer");
      ( "value",
        Json.Obj
          [
            ("observed", Json.Int ts.Sim.Metrics.observed);
            ("mean", Json.Float ts.Sim.Metrics.mean);
            ("p50", Json.Float ts.Sim.Metrics.p50);
            ("p95", Json.Float ts.Sim.Metrics.p95);
            ("max", Json.Float ts.Sim.Metrics.vmax);
            ("lo", Json.Float ts.Sim.Metrics.lo);
            ("hi", Json.Float ts.Sim.Metrics.hi);
            ( "buckets",
              Json.List
                (Array.to_list
                   (Array.map (fun n -> Json.Int n) ts.Sim.Metrics.buckets)) );
          ] )
    ]

let metrics_to_json snapshot =
  Json.List
    (List.map
       (fun (name, labels, value) ->
         Json.Obj
           (("name", Json.String name)
           :: ("labels", labels_to_json labels)
           :: value_to_json value))
       snapshot)

let labels_of_json j =
  match Json.member "labels" j with
  | Some (Json.Obj kvs) ->
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match Json.to_string_opt v with
        | Some s -> Ok ((k, s) :: acc)
        | None -> Error (Printf.sprintf "label %S is not a string" k))
      (Ok []) kvs
    |> Result.map List.rev
  | Some _ -> Error "field \"labels\" is not an object"
  | None -> Error "missing field \"labels\""

let value_of_json j =
  let* kind = string_field "kind" j in
  match kind with
  | "counter" ->
    let* n = int_field "value" j in
    Ok (Sim.Metrics.Counter_v n)
  | "gauge" ->
    let* v = float_field "value" j in
    Ok (Sim.Metrics.Gauge_v v)
  | "timer" -> (
    match Json.member "value" j with
    | None -> Error "missing field \"value\""
    | Some tj ->
      let* observed = int_field "observed" tj in
      let* mean = float_field "mean" tj in
      let* p50 = float_field "p50" tj in
      let* p95 = float_field "p95" tj in
      let* vmax = float_field "max" tj in
      let* lo = float_field "lo" tj in
      let* hi = float_field "hi" tj in
      let* buckets =
        match Json.member "buckets" tj with
        | Some (Json.List bs) ->
          List.fold_left
            (fun acc b ->
              let* acc = acc in
              match Json.to_float_opt b with
              | Some f -> Ok (int_of_float f :: acc)
              | None -> Error "bucket is not a number")
            (Ok []) bs
          |> Result.map (fun l -> Array.of_list (List.rev l))
        | _ -> Error "missing or invalid field \"buckets\""
      in
      Ok
        (Sim.Metrics.Timer_v
           { Sim.Metrics.observed; mean; p50; p95; vmax; lo; hi; buckets }))
  | _ -> Error (Printf.sprintf "unknown metric kind %S" kind)

let metrics_of_json j =
  match j with
  | Json.List items ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* name = string_field "name" item in
        let* labels = labels_of_json item in
        let* value = value_of_json item in
        Ok ((name, labels, value) :: acc))
      (Ok []) items
    |> Result.map List.rev
  | _ -> Error "metrics: expected a JSON array"

(* ---------- engine profile (Sim.Prof) ---------- *)

let prof_span_to_json (s : Sim.Prof.span_stat) =
  Json.Obj
    [
      ("name", Json.String s.Sim.Prof.name);
      ("count", Json.Int s.Sim.Prof.count);
      ("total_ns", Json.Float s.Sim.Prof.total_ns);
      ("self_ns", Json.Float s.Sim.Prof.self_ns);
      ("minor_words", Json.Float s.Sim.Prof.minor_words);
      ("major_words", Json.Float s.Sim.Prof.major_words);
      ("minor_collections", Json.Int s.Sim.Prof.minor_collections);
      ("major_collections", Json.Int s.Sim.Prof.major_collections);
    ]

let prof_to_json (r : Sim.Prof.report) =
  Json.Obj
    [
      ("schema", Json.String "bcp-prof/v1");
      ("wall_ns", Json.Float r.Sim.Prof.wall_ns);
      ("spans", Json.List (List.map prof_span_to_json r.Sim.Prof.spans));
      ( "counters",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) r.Sim.Prof.counters) );
      ("raw_spans", Json.Int (List.length r.Sim.Prof.raw_spans));
      ("dropped_spans", Json.Int r.Sim.Prof.dropped_spans);
    ]

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
    ^ "}"

let metrics_report snapshot =
  let r = Report.make ~title:"Telemetry metrics" ~columns:[ "kind"; "value" ] in
  List.iter
    (fun (name, labels, value) ->
      let kind, rendered =
        match value with
        | Sim.Metrics.Counter_v n -> ("counter", string_of_int n)
        | Sim.Metrics.Gauge_v v -> ("gauge", Printf.sprintf "%.6f" v)
        | Sim.Metrics.Timer_v ts ->
          ( "timer",
            Printf.sprintf "n=%d p50=%.3fms p95=%.3fms max=%.3fms"
              ts.Sim.Metrics.observed
              (1000.0 *. ts.Sim.Metrics.p50)
              (1000.0 *. ts.Sim.Metrics.p95)
              (1000.0 *. ts.Sim.Metrics.vmax) )
      in
      Report.add_row r ~label:(name ^ render_labels labels) ~cells:[ kind; rendered ])
    snapshot;
  r

(* ---------- collector ---------- *)

type collector = {
  registry : Sim.Metrics.t;
  keep_events : bool;
  mutable rev_events : (int * float * Sim.Event.t) list;
}

type run = Sim.Metrics.t * (float * Sim.Event.t) list

let create ~events =
  { registry = Sim.Metrics.create (); keep_events = events; rev_events = [] }

let keeps_events c = c.keep_events

let add obs ~tag run =
  match (obs, run) with
  | Some c, Some (metrics, events) ->
    Sim.Metrics.merge_into ~into:c.registry metrics;
    if c.keep_events then
      List.iter
        (fun (time, ev) -> c.rev_events <- (tag, time, ev) :: c.rev_events)
        events
  | _ -> ()

let setup_sink c ev =
  if c.keep_events then c.rev_events <- (-1, 0.0, ev) :: c.rev_events

let metrics c = Sim.Metrics.snapshot c.registry
let events c = List.rev c.rev_events
